package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rvdyn/internal/codegen"
	"rvdyn/internal/dataflow"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/parse"
	"rvdyn/internal/patch"
	"rvdyn/internal/riscv"
	"rvdyn/internal/snippet"
	"rvdyn/internal/symtab"
)

// perLayer lists the per-layer metrics of the traced run. A timed metric
// is the median over the run's layer rounds; a count (timed false) comes
// from the first round, on the workload's first program, so it repeats
// exactly for a given seed.
var perLayer = []struct {
	name, unit string
	timed      bool
}{
	{"riscv.decode_ns_per_inst", "ns", true},
	{"elfrv.read_us", "us", true},
	{"elfrv.write_us", "us", true},
	{"parse.ns_per_inst", "ns", true},
	{"parse.funcs", "count", false},
	{"parse.blocks", "count", false},
	{"dataflow.liveness_us_per_func", "us", true},
	{"patch.plan_ms", "ms", true},
	{"patch.layout_ms", "ms", true},
	{"patch.encode_ms", "ms", true},
	{"patch.splice_ms", "ms", true},
	{"patch.growth_bytes", "bytes", false},
	{"patch.kind.c_j", "count", false},
	{"patch.kind.jal", "count", false},
	{"patch.kind.auipc_jalr", "count", false},
	{"patch.kind.trap", "count", false},
	{"static.inst_ratio", "ratio", false},
	{"emu.ns_per_inst.slow", "ns", true},
	{"emu.ns_per_inst.fast", "ns", true},
	{"emu.ns_per_inst.trace", "ns", true},
	{"emu.block_cache.builds", "count", false},
	{"emu.chain.hits", "count", false},
	{"emu.trace.builds", "count", false},
	{"emu.trace.passes", "count", false},
	{"emu.trace.side_exits", "count", false},
	{"emu.tlb.read.hit_ratio", "ratio", false},
	{"emu.tlb.write.hit_ratio", "ratio", false},
	{"emu.tlb.fetch.hit_ratio", "ratio", false},
	{"emu.fuse.total", "count", false},
	{"proc.launch_us", "us", true},
	{"dbi.attach_ms", "ms", true},
	{"dbi.continue_ms", "ms", true},
	{"emu.dbi.translations", "count", false},
	{"emu.dbi.flushes", "count", false},
	{"emu.dbi.indirect_exits", "count", false},
	{"emu.dbi.ibl.hit_ratio", "ratio", false},
	{"emu.dbi.ibc.hit_ratio", "ratio", false},
	{"emu.dbi.chain.patches", "count", false},
	{"dbi.inst_ratio", "ratio", false},
	{"sample.run_ms", "ms", true},
	{"sample.samples", "count", false},
	{"sample.pprof_write_ms", "ms", true},
}

// serverLayer lists the service metrics of the traced run, read from the
// service's registry after its phase.
var serverLayer = []struct{ name, unit string }{
	{"server.latency_us.cold", "us"},
	{"server.latency_us.warm", "us"},
	{"cache.hit_ratio.analysis", "ratio"},
	{"cache.hit_ratio.liveness", "ratio"},
	{"cache.hit_ratio.plan", "ratio"},
	{"cache.hit_ratio.elf", "ratio"},
	{"cache.evictions", "count"},
	{"cache.singleflight.coalesced", "count"},
	{"cache.bytes", "bytes"},
}

// runTraced is the traced run. Each exec iteration runs one untraced exec
// round and the same round traced (spans plus obs registries), in
// alternating order, then one layer round that calls the layers one by
// one; trace.overhead is the traced round's median wall time over the
// untraced one's. The service runs
// traced. The spans go to tracePath when the run ends.
func runTraced(w workloadDef, seed int64, budget time.Duration, sz sizes, tracePath string) (*result, error) {
	t := &tracing{tr: obs.NewTracer(), workload: w.name}
	b := newBench()
	sp := t.begin(nil, "asm", "setup")
	in, err := b.setup(w, seed, sz)
	sp.end()
	if err != nil {
		return nil, err
	}
	svc := newService(in, seed, t)
	var plain, traced []float64
	var rounds []map[string]float64
	timed := func(p *program, t *tracing) float64 {
		s := time.Now()
		b.execRound(p, t)
		return ms(time.Since(s))
	}
	err = b.alternate(svc, w.execShare, budget, func() {
		p := in.prog
		t.reg = obs.NewRegistry()
		// Alternate which of the pair runs first, so neither gains from
		// running second.
		if len(rounds)%2 == 0 {
			plain = append(plain, timed(p, nil))
			traced = append(traced, timed(p, t))
		} else {
			traced = append(traced, timed(p, t))
			plain = append(plain, timed(p, nil))
		}
		rounds = append(rounds, b.layerRound(p, t))
	})
	if err != nil {
		return nil, err
	}
	b.serveResults(svc)

	res := &result{}
	for _, m := range perLayer {
		v := rounds[0][m.name]
		if m.timed {
			var xs []float64
			for _, r := range rounds {
				if x, ok := r[m.name]; ok {
					xs = append(xs, x)
				}
			}
			v = median(xs)
		}
		res.metrics = append(res.metrics, metric{m.name, m.unit, v})
	}
	sv := serverMetrics(svc.reg)
	for _, m := range serverLayer {
		res.metrics = append(res.metrics, metric{m.name, m.unit, sv[m.name]})
	}
	res.metrics = append(res.metrics, metric{"trace.overhead", "ratio", median(traced) / median(plain)})

	if err := writeTrace(t.tr, tracePath); err != nil {
		return nil, err
	}
	fmt.Printf("# %s seed %d: %d traced iterations, %d spans written to %s\n",
		w.name, seed, len(rounds), len(t.tr.Events()), tracePath)
	return b.finish(res), nil
}

// layerRound calls the toolchain's layers one at a time on p, with a span
// and a fresh registry each, and returns their per-layer values. Failed
// checks count like any other operation's.
func (b *bench) layerRound(p *program, t *tracing) map[string]float64 {
	v := map[string]float64{}
	root := t.begin(nil, "bench", "layers:"+p.name)
	defer root.end()
	b.chk.op("layers "+p.name, b.staticLayers(p, t, root, v))
	b.chk.op("tiers "+p.name, b.tiers(p, t, root, v))
	return v
}

// staticLayers rewrites p layer by layer — read, decode, parse, liveness,
// plan/layout/encode/splice, write — and checks that the bytes equal the
// pipeline's rewrite of the same spec.
func (b *bench) staticLayers(p *program, t *tracing, root *span, v map[string]float64) error {
	t.reg = obs.NewRegistry()
	sp := t.begin(root, "elfrv", "elfrv.Read")
	start := time.Now()
	f, err := elfrv.Read(p.raw)
	v["elfrv.read_us"] = us(time.Since(start))
	sp.end()
	if err != nil {
		return fmt.Errorf("read: %w", err)
	}

	text := f.Section(".text")
	if text == nil {
		return fmt.Errorf("no .text section")
	}
	sp = t.begin(root, "riscv", "riscv.Decode")
	start = time.Now()
	n := 0
	for off := 0; off < len(text.Data); n++ {
		in, err := riscv.Decode(text.Data[off:], text.Addr+uint64(off))
		if err != nil {
			sp.end()
			return fmt.Errorf("decode at %#x: %w", text.Addr+uint64(off), err)
		}
		off += in.Len
	}
	v["riscv.decode_ns_per_inst"] = float64(time.Since(start)) / float64(n)
	sp.end()

	st, err := symtab.FromFile(f)
	if err != nil {
		return fmt.Errorf("symtab: %w", err)
	}
	sp = t.begin(root, "parse", "parse.Parse")
	start = time.Now()
	cfg, err := parse.Parse(st, parse.Options{Workers: jobs})
	d := time.Since(start)
	sp.end()
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	v["parse.ns_per_inst"] = float64(d) / float64(cfg.Stats.Instructions)
	v["parse.funcs"] = float64(cfg.Stats.Functions)
	v["parse.blocks"] = float64(cfg.Stats.Blocks)

	sp = t.begin(root, "dataflow", "dataflow.Liveness")
	start = time.Now()
	for _, fn := range cfg.Funcs {
		dataflow.Liveness(fn)
	}
	v["dataflow.liveness_us_per_func"] = us(time.Since(start)) / float64(len(cfg.Funcs))
	sp.end()

	rw := patch.NewRewriter(st, cfg, codegen.ModeDeadRegister)
	rw.Jobs = jobs
	rw.Obs = t.reg
	for _, name := range p.funcs {
		fn, ok := cfg.FuncByName(name)
		if !ok {
			return fmt.Errorf("no function %q", name)
		}
		ctr := rw.NewVar("ctr_"+name, 8)
		for _, pt := range snippet.BlockEntries(fn) {
			if err := rw.InsertSnippet(pt, snippet.Increment(ctr)); err != nil {
				return err
			}
		}
	}
	sp = t.begin(root, "patch", "patch.Rewrite")
	out, err := rw.Rewrite()
	sp.end()
	if err != nil {
		return fmt.Errorf("rewrite: %w", err)
	}
	v["patch.plan_ms"] = ms(rw.Phases.Plan)
	v["patch.layout_ms"] = ms(rw.Phases.Layout)
	v["patch.encode_ms"] = ms(rw.Phases.Encode)
	v["patch.splice_ms"] = ms(rw.Phases.Splice)
	v["patch.growth_bytes"] = float64(t.reg.Counter("patch.reloc.growth_bytes").Load())
	for name, kind := range map[string]string{"c_j": "c.j", "jal": "jal", "auipc_jalr": "auipc+jalr", "trap": "trap"} {
		v["patch.kind."+name] = float64(t.reg.Counter("patch.kind." + kind).Load())
	}

	sp = t.begin(root, "elfrv", "elfrv.Write")
	start = time.Now()
	raw, err := out.Write()
	v["elfrv.write_us"] = us(time.Since(start))
	sp.end()
	if err != nil {
		return fmt.Errorf("write: %w", err)
	}
	if p.staticELF != nil && !bytes.Equal(raw, p.staticELF) {
		return fmt.Errorf("layer-by-layer rewrite differs from pipeline.Instrument's")
	}
	return nil
}

// tiers runs p on each emulator dispatch tier, then the rewritten binary,
// the DBI engine and the sampler, with the engine counters attached.
func (b *bench) tiers(p *program, t *tracing, root *span, v map[string]float64) error {
	var native *runOutput
	var nativeCycles uint64
	for _, tier := range []string{"slow", "fast", "trace"} {
		cpu, err := emu.New(p.file, nil)
		if err != nil {
			return err
		}
		cpu.SlowDispatch = tier == "slow"
		cpu.NoTrace = tier != "trace"
		// The counters come from the default engine: the trace tier, run last.
		t.reg = obs.NewRegistry()
		m := emu.NewMetrics(t.reg)
		cpu.Obs = m
		var out bytes.Buffer
		cpu.Stdout = &out
		sp := t.begin(root, "emu", "emu.Run:"+tier)
		start := time.Now()
		stop := cpu.Run(0)
		d := time.Since(start)
		sp.end()
		if stop != emu.StopExit || cpu.Instret != p.nativeInstret {
			return fmt.Errorf("%s tier: stop %v after %d instructions, native %d", tier, stop, cpu.Instret, p.nativeInstret)
		}
		native, nativeCycles = &runOutput{cpu.ExitCode, out.String()}, cpu.Cycles
		if err := sameOutput(*native, p.want); err != nil {
			return fmt.Errorf("%s tier: %w", tier, err)
		}
		v["emu.ns_per_inst."+tier] = float64(d) / float64(cpu.Instret)
		v["emu.block_cache.builds"] = float64(m.BlockBuilds.Load())
		v["emu.chain.hits"] = float64(m.ChainHits.Load())
		v["emu.trace.builds"] = float64(m.TraceBuilds.Load())
		v["emu.trace.passes"] = float64(m.TracePasses.Load())
		v["emu.trace.side_exits"] = float64(m.TraceSideExits.Load())
		v["emu.tlb.read.hit_ratio"] = hitRatio(m.TLBReadHits, m.TLBReadMisses)
		v["emu.tlb.write.hit_ratio"] = hitRatio(m.TLBWriteHits, m.TLBWriteMisses)
		v["emu.tlb.fetch.hit_ratio"] = hitRatio(m.TLBFetchHits, m.TLBFetchMisses)
		var fused uint64
		for _, c := range m.Fused {
			fused += c.Load()
		}
		v["emu.fuse.total"] = float64(fused)
	}

	if p.staticELF != nil {
		sf, err := elfrv.Read(p.staticELF)
		if err != nil {
			return err
		}
		cpu, err := emu.New(sf, nil)
		if err != nil {
			return err
		}
		sp := t.begin(root, "emu", "emu.Run:static")
		stop := cpu.Run(0)
		sp.end()
		if stop != emu.StopExit || cpu.ExitCode != native.exit {
			return fmt.Errorf("rewritten binary: stop %v, exit %d", stop, cpu.ExitCode)
		}
		v["static.inst_ratio"] = float64(cpu.Instret) / float64(p.nativeInstret)
	}

	t.reg = obs.NewRegistry()
	run, err := b.dbiRun(p, t, root, native, nil)
	if err != nil {
		return fmt.Errorf("dbi: %w", err)
	}
	v["proc.launch_us"] = us(run.launch)
	v["dbi.attach_ms"] = ms(run.attach)
	v["dbi.continue_ms"] = ms(run.cont)
	v["dbi.inst_ratio"] = float64(run.instret) / float64(p.nativeInstret)
	for _, name := range []string{"translations", "flushes", "indirect_exits", "chain.patches"} {
		v["emu.dbi."+name] = float64(t.reg.Counter("emu.dbi." + name).Load())
	}
	v["emu.dbi.ibl.hit_ratio"] = hitRatio(t.reg.Counter("emu.dbi.ibl.hits"), t.reg.Counter("emu.dbi.ibl.misses"))
	v["emu.dbi.ibc.hit_ratio"] = hitRatio(t.reg.Counter("emu.dbi.ibc.hits"), t.reg.Counter("emu.dbi.ibc.misses"))

	d, err := b.sampled(p, t, root, native, nativeCycles)
	if err != nil {
		return fmt.Errorf("sampled: %w", err)
	}
	v["sample.run_ms"] = ms(d)
	v["sample.samples"] = float64(t.samples)
	v["sample.pprof_write_ms"] = t.pprofMs
	return nil
}

func hitRatio(hits, misses *obs.Counter) float64 {
	h := hits.Load()
	return ratio(h, h+misses.Load())
}

// serverMetrics reads the service layer's values from its registry.
func serverMetrics(reg *obs.Registry) map[string]float64 {
	v := map[string]float64{}
	for _, state := range []string{"cold", "warm"} {
		h := reg.Histogram("server.latency_ns."+state, nil)
		v["server.latency_us."+state] = h.Quantile(0.5) / 1e3
	}
	for _, level := range []string{"analysis", "liveness", "plan", "elf"} {
		hits := reg.Counter("cache.hits." + level).Load()
		all := hits + reg.Counter("cache.misses."+level).Load() +
			reg.Counter("cache.singleflight.coalesced."+level).Load()
		v["cache.hit_ratio."+level] = ratio(hits, all)
	}
	v["cache.evictions"] = float64(reg.Counter("cache.evictions").Load())
	v["cache.singleflight.coalesced"] = float64(reg.Counter("cache.singleflight.coalesced").Load())
	v["cache.bytes"] = float64(reg.Gauge("cache.bytes").Load())
	return v
}

func writeTrace(tr *obs.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
