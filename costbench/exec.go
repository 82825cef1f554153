package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"rvdyn/internal/dbi"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/pipeline"
	"rvdyn/internal/proc"
	"rvdyn/internal/profile/sample"
	"rvdyn/internal/snippet"
)

// samplePeriod is the sampler's fixed period in virtual cycles.
const samplePeriod = 10007

// runOutput is what a guest run shows the outside world.
type runOutput struct {
	exit   int
	stdout string
}

// execStats collects the exec phase's measurements, one value per run
// that passed its checks.
// Times are divided by the native run's Instret for the same input, never
// by the run's own: instrumented runs retire stub and probe instructions
// too, and counting those would make instrumentation look like speed.
type execStats struct {
	nativeNs, staticNs, dbiNs, sampledNs series // ns per native instruction
	rewriteMs                            series
	staticOverhead, dbiOverhead          []float64 // virtual Cycles ÷ native Cycles − 1
}

// minOpTime is how long a round keeps repeating each kind of run. Cheap
// runs repeat until they have taken this long, so every kind contributes
// many samples; a long run happens once.
const minOpTime = 100 * time.Millisecond

// repeat runs f until minOpTime has passed, calibrating before the first
// run and after each so that every sample it records is bracketed. It
// starts from a collected heap: each kind of run pays for its own garbage,
// not for the previous kind's.
func (b *bench) repeat(f func()) {
	runtime.GC()
	b.clock.calibrate()
	for start := time.Now(); ; {
		f()
		b.clock.calibrate()
		if time.Since(start) >= minOpTime {
			return
		}
	}
}

// execRound runs p natively, rewrites it, and runs the rewrite, the DBI
// engine and the sampler over it, checking every run. Each kind of run
// repeats in a block of its own. t is nil for an untraced round.
func (b *bench) execRound(p *program, t *tracing) {
	root := t.begin(nil, "bench", "exec:"+p.name)
	defer root.end()

	var nat *runOutput
	var cycles uint64
	b.repeat(func() {
		o, c, err := b.native(p, t, root)
		b.chk.op("native "+p.name, err)
		if o != nil {
			nat, cycles = o, c
		}
	})
	if nat == nil {
		return // nothing to compare the other runs against
	}
	n := float64(p.nativeInstret)

	b.repeat(func() { b.chk.op("rewrite "+p.name, b.rewrite(p, t, root)) })

	var counts []uint64
	b.repeat(func() {
		c, err := b.static(p, t, root, nat, cycles)
		b.chk.op("static "+p.name, err)
		counts = c
	})

	b.repeat(func() {
		run, err := b.dbiRun(p, t, root, nat, counts)
		b.chk.op("dbi "+p.name, err)
		if err == nil {
			b.clock.record(&b.ex.dbiNs, float64(run.attach+run.cont)/n)
			b.ex.dbiOverhead = append(b.ex.dbiOverhead, float64(run.cycles)/float64(cycles)-1)
		}
	})

	b.repeat(func() {
		d, err := b.sampled(p, t, root, nat, cycles)
		b.chk.op("sampled "+p.name, err)
		if err == nil {
			b.clock.record(&b.ex.sampledNs, float64(d)/n)
		}
	})
}

// native runs p uninstrumented on the default engine and checks its
// output. It returns nil when the run did not complete.
func (b *bench) native(p *program, t *tracing, parent *span) (*runOutput, uint64, error) {
	cpu, err := emu.New(p.file, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	var out bytes.Buffer
	cpu.Stdout = &out
	if t != nil {
		cpu.Obs = emu.NewMetrics(t.reg)
	}
	sp := t.begin(parent, "emu", "emu.Run")
	start := time.Now()
	stop := cpu.Run(0)
	d := time.Since(start)
	sp.end()
	if stop != emu.StopExit {
		return nil, 0, fmt.Errorf("stopped with %v (%v)", stop, cpu.LastTrap())
	}
	got := &runOutput{exit: cpu.ExitCode, stdout: out.String()}
	if p.nativeInstret == 0 {
		p.nativeInstret = cpu.Instret
		if !p.haveWant {
			p.want, p.haveWant = *got, true
		}
	}
	if cpu.Instret != p.nativeInstret {
		return got, cpu.Cycles, fmt.Errorf("retired %d instructions, earlier run %d", cpu.Instret, p.nativeInstret)
	}
	if err := sameOutput(*got, p.want); err != nil {
		return got, cpu.Cycles, err
	}
	if err := p.checkMatrix(cpu.ReadMem); err != nil {
		return got, cpu.Cycles, err
	}
	b.clock.record(&b.ex.nativeNs, float64(d)/float64(p.nativeInstret))
	return got, cpu.Cycles, nil
}

// rewrite rewrites p's ELF bytes with a counter at every block entry of
// its functions, and checks that the bytes equal the first round's.
func (b *bench) rewrite(p *program, t *tracing, parent *span) error {
	sp := t.begin(parent, "pipeline", "pipeline.Instrument")
	start := time.Now()
	f, err := elfrv.Read(p.raw)
	if err != nil {
		sp.end()
		return fmt.Errorf("read: %w", err)
	}
	opts := pipeline.Options{Jobs: jobs, Points: "blocks"}
	if t != nil {
		opts.Metrics = t.reg
	}
	res, err := pipeline.Instrument(pipeline.Job{Name: p.name, File: f, Funcs: p.funcs}, opts, nil)
	d := time.Since(start)
	sp.end()
	if err != nil {
		return err
	}
	if p.staticELF == nil {
		p.staticELF, p.counters = res.ELF, res.Counters
	} else if !bytes.Equal(res.ELF, p.staticELF) {
		return fmt.Errorf("rewritten ELF differs from the first round's")
	}
	b.clock.record(&b.ex.rewriteMs, ms(d))
	return nil
}

// static runs p's rewritten ELF and returns the counter of each function.
func (b *bench) static(p *program, t *tracing, parent *span, nat *runOutput, nativeCycles uint64) ([]uint64, error) {
	if p.staticELF == nil {
		return nil, fmt.Errorf("no rewritten ELF")
	}
	sf, err := elfrv.Read(p.staticELF)
	if err != nil {
		return nil, fmt.Errorf("read rewritten ELF: %w", err)
	}
	cpu, err := emu.New(sf, nil)
	if err != nil {
		return nil, fmt.Errorf("load rewritten ELF: %w", err)
	}
	var out bytes.Buffer
	cpu.Stdout = &out
	if t != nil {
		cpu.Obs = emu.NewMetrics(t.reg)
	}
	sp := t.begin(parent, "emu", "emu.Run:static")
	start := time.Now()
	stop := cpu.Run(0)
	d := time.Since(start)
	sp.end()
	if stop != emu.StopExit {
		return nil, fmt.Errorf("rewritten binary stopped with %v (%v)", stop, cpu.LastTrap())
	}
	if err := sameOutput(runOutput{cpu.ExitCode, out.String()}, *nat); err != nil {
		return nil, fmt.Errorf("rewritten binary: %w", err)
	}
	if err := p.checkMatrix(cpu.ReadMem); err != nil {
		return nil, fmt.Errorf("rewritten binary: %w", err)
	}
	counts := make([]uint64, len(p.funcs))
	for i, fn := range p.funcs {
		buf, err := cpu.ReadMem(p.counters[fn], 8)
		if err != nil {
			return nil, fmt.Errorf("read counter of %s: %w", fn, err)
		}
		counts[i] = binary.LittleEndian.Uint64(buf)
	}
	b.clock.record(&b.ex.staticNs, float64(d)/float64(p.nativeInstret))
	b.ex.staticOverhead = append(b.ex.staticOverhead, float64(cpu.Cycles)/float64(nativeCycles)-1)
	return counts, nil
}

// dbiOut is one DBI run's timings and raw, uncompensated counters.
type dbiOut struct {
	launch, attach, cont time.Duration // proc.Launch; Attach+ProbeAt; Continue to exit
	cycles, instret      uint64
}

// dbiRun runs p under the DBI engine with a counter probe at every block
// entry of its functions — the static run's probe points — and checks the
// counters against the static ones (nil when the static run failed).
func (b *bench) dbiRun(p *program, t *tracing, parent *span, nat *runOutput, static []uint64) (dbiOut, error) {
	var o dbiOut
	sp := t.begin(parent, "proc", "proc.Launch")
	start := time.Now()
	pr, err := proc.Launch(p.file, nil)
	o.launch = time.Since(start)
	sp.end()
	if err != nil {
		return o, fmt.Errorf("launch: %w", err)
	}
	cpu := pr.CPU()
	var out bytes.Buffer
	cpu.Stdout = &out
	var m dbi.Metrics
	if t != nil {
		cpu.Obs = emu.NewMetrics(t.reg)
		m = dbi.NewMetrics(t.reg)
	}
	sp = t.begin(parent, "dbi", "dbi.Attach+ProbeAt")
	start = time.Now()
	e, err := dbi.Attach(pr, p.file, dbi.Options{Obs: m})
	if err != nil {
		sp.end()
		return o, fmt.Errorf("attach: %w", err)
	}
	base, nblocks := counterRegion(p)
	pr.MapRegion(base, uint64(8*nblocks+4095)&^4095)
	addr := base
	for _, starts := range p.blocks {
		for _, a := range starts {
			v := &snippet.Var{Name: "bb", Width: 8, Addr: addr}
			addr += 8
			if err := e.ProbeAt(a, snippet.Increment(v)); err != nil {
				sp.end()
				return o, fmt.Errorf("probe %#x: %w", a, err)
			}
		}
	}
	o.attach = time.Since(start)
	sp.end()
	sp = t.begin(parent, "dbi", "dbi.Continue")
	start = time.Now()
	ev, err := e.Continue()
	o.cont = time.Since(start)
	sp.end()
	o.cycles, o.instret = cpu.Cycles, cpu.Instret
	if err != nil {
		return o, err
	}
	if ev.Kind != proc.EventExit {
		return o, fmt.Errorf("stopped with %v, not exit", ev.Kind)
	}
	if err := sameOutput(runOutput{pr.ExitCode(), out.String()}, *nat); err != nil {
		return o, err
	}
	if err := p.checkMatrix(pr.ReadMem); err != nil {
		return o, err
	}
	raw, err := pr.ReadMem(base, 8*nblocks)
	if err != nil {
		return o, fmt.Errorf("read counters: %w", err)
	}
	k := 0
	for i, starts := range p.blocks {
		var sum uint64
		for j := range starts {
			c := binary.LittleEndian.Uint64(raw[8*k:])
			k++
			sum += c
			if j == 0 && p.fibN > 0 && p.funcs[i] == "fib" {
				if want := uint64(2*fib(p.fibN+1) - 1); c != want {
					return o, fmt.Errorf("fib entered %d times, want 2·fib(%d)−1 = %d", c, p.fibN+1, want)
				}
			}
		}
		if static != nil && sum != static[i] {
			return o, fmt.Errorf("%s: DBI counted %d block entries, static %d", p.funcs[i], sum, static[i])
		}
	}
	return o, nil
}

// counterRegion places the DBI run's per-block counters 1 MiB above the
// engine's own regions (code cache, variables, lookup tables), which start
// 4 MiB above the image.
func counterRegion(p *program) (base uint64, n int) {
	var end uint64
	for _, s := range p.file.Sections {
		if s.Flags&elfrv.SHFAlloc != 0 && s.Addr+s.Size() > end {
			end = s.Addr + s.Size()
		}
	}
	for _, s := range p.blocks {
		n += len(s)
	}
	return (end+0xfff)&^0xfff + 0x400000 + 0x100000, n
}

// sampled runs p under the sampling profiler, writes and re-parses its
// pprof, and checks the profile's totals against the native run.
func (b *bench) sampled(p *program, t *tracing, parent *span, nat *runOutput, nativeCycles uint64) (time.Duration, error) {
	opts := sample.Options{Period: samplePeriod, Name: p.name}
	if t != nil {
		opts.Obs = t.reg
	}
	sp := t.begin(parent, "sample", "sample.Run")
	start := time.Now()
	prof, err := sample.Run(p.file, opts)
	d := time.Since(start)
	sp.end()
	if err != nil {
		return 0, err
	}
	sp = t.begin(parent, "sample", "sample.WritePprof")
	var buf bytes.Buffer
	wstart := time.Now()
	err = prof.WritePprof(&buf)
	if t != nil {
		t.pprofMs = ms(time.Since(wstart))
	}
	sp.end()
	if err != nil {
		return 0, fmt.Errorf("write pprof: %w", err)
	}
	dec, err := sample.ParsePprof(&buf)
	if err != nil {
		return 0, err
	}
	if prof.ExitCode != nat.exit {
		return 0, fmt.Errorf("exit %d, native %d", prof.ExitCode, nat.exit)
	}
	if prof.TotalCycles != nativeCycles || prof.TotalInsts != p.nativeInstret {
		return 0, fmt.Errorf("totals %d cycles / %d insts, native %d / %d",
			prof.TotalCycles, prof.TotalInsts, nativeCycles, p.nativeInstret)
	}
	n := len(prof.Samples)
	if dec.TotalSamples() != int64(n) {
		return 0, fmt.Errorf("pprof holds %d samples, profile %d", dec.TotalSamples(), n)
	}
	if math.Abs(float64(n)*samplePeriod-float64(prof.TotalCycles)) > samplePeriod {
		return 0, fmt.Errorf("%d samples × period %d is not within one period of %d cycles",
			n, samplePeriod, prof.TotalCycles)
	}
	if t != nil {
		t.samples = uint64(n)
	}
	return d, nil
}

func sameOutput(got, want runOutput) error {
	if got.exit != want.exit {
		return fmt.Errorf("exit code %d, want %d", got.exit, want.exit)
	}
	if got.stdout != want.stdout {
		return fmt.Errorf("stdout %q, want %q", got.stdout, want.stdout)
	}
	return nil
}

// checkMatrix compares mat_c with the reference product when p has one.
func (p *program) checkMatrix(read func(addr uint64, n int) ([]byte, error)) error {
	if p.matRef == nil {
		return nil
	}
	sym, ok := p.file.Symbol("mat_c")
	if !ok {
		return fmt.Errorf("no mat_c symbol")
	}
	buf, err := read(sym.Value, 8*len(p.matRef))
	if err != nil {
		return fmt.Errorf("read mat_c: %w", err)
	}
	for i, want := range p.matRef {
		if got := math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])); got != want {
			return fmt.Errorf("mat_c[%d] = %v, want %v", i, got, want)
		}
	}
	return nil
}
