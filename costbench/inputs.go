package main

import (
	"fmt"
	"math/rand"
	"strings"

	"rvdyn/internal/asm"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/parse"
	"rvdyn/internal/server"
	"rvdyn/internal/symtab"
	"rvdyn/internal/workload"
)

// program is one guest binary the exec phase runs four ways: natively,
// statically rewritten, under DBI and under the sampler.
type program struct {
	name string
	raw  []byte      // ELF bytes, as the rewriter receives them
	file *elfrv.File // the same image, parsed once for the emulator runs
	// funcs are the instrumented functions; every block entry of each gets
	// a counter. blocks[i] lists the block starts of funcs[i], which are
	// the DBI probe sites.
	funcs  []string
	blocks [][]uint64

	// want holds the expected exit code and stdout. haveWant false means
	// the first native run fixes them: coldcode has no closed form.
	want     runOutput
	haveWant bool
	// fibN > 0 means the entry block of fib must run 2·fib(fibN+1)−1 times.
	fibN int
	// matRef, when set, is the result matrix mat_c must hold at exit.
	matRef []float64

	// Fixed by the first round and checked on every later one: the native
	// instruction count and the rewritten bytes never vary between runs.
	nativeInstret uint64
	staticELF     []byte
	counters      map[string]uint64 // each function's counter in staticELF
}

// serveInput is one binary the service phase may submit, with the specs
// that may be requested for it.
type serveInput struct {
	raw   []byte
	specs []server.Spec
}

// inputs is everything one workload feeds the two phases.
type inputs struct {
	prog *program
	pool []serveInput
	// cacheBytes bounds the service's artifact cache below the pool's
	// working set, so both the hit path and insert/evict show.
	cacheBytes uint64
}

// sizes are the input sizes of every workload. fullSizes is what the
// benchmark runs; the package test runs tinySizes.
type sizes struct {
	matN, matReps  int // matmul exec program
	fibN           int // fib exec program
	coldFuncs      int // coldcode exec program
	serveExecFuncs int // serve workload's exec program
	poolSize       int // serve-phase inputs for matmul, fib, serve
	coldPoolSize   int // serve-phase inputs for coldcode
	coldPoolFuncs  int
	servePoolFuncs int // serve pool programs have [n, 2n) functions
	specsPerInput  int
}

var fullSizes = sizes{
	// matmul: n = 60 with 4 reps retires about 7·10^6 instructions, long
	// enough that run start-up is noise and the trace tier dominates.
	matN: 60, matReps: 4,
	// fib: fib(24) makes 10^5 calls; every return is a jalr.
	fibN: 24,
	// coldcode: 2000 functions, each run about twice; with a counter at
	// every block the DBI translations overflow the 512 KiB code cache.
	coldFuncs:      2000,
	serveExecFuncs: 400,
	poolSize:       160, coldPoolSize: 24, coldPoolFuncs: 80,
	servePoolFuncs: 16, specsPerInput: 3,
}

var tinySizes = sizes{
	matN: 6, matReps: 1,
	fibN:           10,
	coldFuncs:      40,
	serveExecFuncs: 20,
	poolSize:       12, coldPoolSize: 6, coldPoolFuncs: 12,
	servePoolFuncs: 4, specsPerInput: 2,
}

// workloadDef is one named workload: how to build its inputs from the seed
// and how to split a run between the exec and service phases.
type workloadDef struct {
	name string
	// execShare is the part of the measured time given to the exec phase;
	// the service phase gets the rest.
	execShare float64
	build     func(rng *rand.Rand, sz sizes) (*inputs, error)
}

// workloads are the four the benchmark runs. Each one measures every
// end-to-end metric, so the workloads differ in what they feed the two
// phases and in how the time is split, not in what they report.
var workloads = []workloadDef{
	// matmul: the paper's §4.1 program. Nearly all time goes to the trace
	// tier and the TLBs; DBI translates a few dozen blocks and runs chained
	// direct edges; rewriting is tiny. The service instruments matmul
	// builds of many sizes.
	{name: "matmul", execShare: 0.5, build: buildMatmul},
	// fib: recursive fib. Every return is a jalr, so DBI time goes to the
	// inline lookup, the inline cache and engine re-entry, and emulation
	// to trace side exits and block dispatch. matmul is its no-change
	// control.
	{name: "fib", execShare: 0.5, build: buildFib},
	// coldcode: generated programs with thousands of functions, each run
	// about twice: decode, block build, DBI translation and code-cache
	// flushes dominate, the trace tier never fires, and the rewrite is
	// dominated by parse, dataflow and patch.
	// Its runs are long (a DBI run takes about a second), so it gives the
	// exec phase most of the time, for enough samples of each kind.
	{name: "coldcode", execShare: 0.7, build: buildColdcode},
	// serve: the service under a seeded mix of novel binaries, exact
	// repeats and spec changes, with its cache bounded below the working
	// set. Most of the time goes to the service; the exec phase runs one
	// mid-sized program of the same generated family.
	{name: "serve", execShare: 0.4, build: buildServe},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func buildMatmul(rng *rand.Rand, sz sizes) (*inputs, error) {
	n := sz.matN
	p, err := newProgram(fmt.Sprintf("matmul%d", n), workload.MatmulSource(n, sz.matReps),
		[]string{"multiply", "init_matrices"})
	if err != nil {
		return nil, err
	}
	p.haveWant = true // exit 0, no output
	p.matRef = workload.RefMatmul(n)
	// Service inputs: matmul builds of distinct sizes, one drawn from each
	// run of four sizes, so every seed's pool costs about the same.
	var srcs []string
	for i := 0; i < sz.poolSize; i++ {
		srcs = append(srcs, workload.MatmulSource(2+4*i+rng.Intn(4), 1))
	}
	return finish(p, rng, sz, srcs, func(string) []string {
		return []string{"multiply", "init_matrices"}
	})
}

func buildFib(rng *rand.Rand, sz sizes) (*inputs, error) {
	n := sz.fibN
	p, err := newProgram(fmt.Sprintf("fib%d", n), fibSource(n), []string{"fib"})
	if err != nil {
		return nil, err
	}
	p.want.exit, p.haveWant = fib(n), true
	p.fibN = n
	// Service inputs: fib builds with distinct arguments, one drawn from
	// each run of four.
	var srcs []string
	for i := 0; i < sz.poolSize; i++ {
		srcs = append(srcs, fibSource(1+4*i+rng.Intn(4)))
	}
	return finish(p, rng, sz, srcs, func(string) []string { return []string{"fib"} })
}

func buildColdcode(rng *rand.Rand, sz sizes) (*inputs, error) {
	p, err := newProgram("coldcode", workload.RandomProgram(rng.Int63(), sz.coldFuncs),
		randomFuncs(sz.coldFuncs))
	if err != nil {
		return nil, err
	}
	var srcs []string
	for i := 0; i < sz.coldPoolSize; i++ {
		srcs = append(srcs, workload.RandomProgram(rng.Int63(), sz.coldPoolFuncs))
	}
	return finish(p, rng, sz, srcs, randomProgramFuncs)
}

const serveExecSeed = 1

func buildServe(rng *rand.Rand, sz sizes) (*inputs, error) {
	// The exec program is the same for every seed: the seed varies the
	// traffic, and a fixed program keeps the exec metrics comparable.
	p, err := newProgram("serveexec", workload.RandomProgram(serveExecSeed, sz.serveExecFuncs),
		randomFuncs(sz.serveExecFuncs))
	if err != nil {
		return nil, err
	}
	// Every size in [n, 2n) comes up equally often, so every seed's pool
	// is about the same size; the seed draws the programs' contents.
	var srcs []string
	for i := 0; i < sz.poolSize; i++ {
		n := sz.servePoolFuncs + i%sz.servePoolFuncs
		srcs = append(srcs, workload.RandomProgram(rng.Int63(), n))
	}
	return finish(p, rng, sz, srcs, randomProgramFuncs)
}

// finish assembles the service pool, draws its specs and sizes the cache.
func finish(p *program, rng *rand.Rand, sz sizes, srcs []string, funcsOf func(src string) []string) (*inputs, error) {
	in := &inputs{prog: p}
	var total uint64
	for _, src := range srcs {
		f, err := asm.Assemble(src, asm.Options{})
		if err != nil {
			return nil, fmt.Errorf("assemble service input: %w", err)
		}
		raw, err := f.Write()
		if err != nil {
			return nil, fmt.Errorf("write service input: %w", err)
		}
		funcs := funcsOf(src)
		var specs []server.Spec
		for k := 0; k < sz.specsPerInput; k++ {
			specs = append(specs, randomSpec(rng, funcs))
		}
		in.pool = append(in.pool, serveInput{raw: raw, specs: specs})
		total += uint64(len(raw))
	}
	// An input's analysis artifact alone is over 17 times its size (64 bytes
	// per instruction, at most 4 bytes each), so a cache of four times the
	// pool's bytes holds under a quarter of the working set, yet fits any
	// one artifact of a pool of six inputs or more.
	in.cacheBytes = 4 * total
	return in, nil
}

// randomSpec draws a spec over one to three of funcs.
func randomSpec(rng *rand.Rand, funcs []string) server.Spec {
	k := 1 + rng.Intn(3)
	if k > len(funcs) {
		k = len(funcs)
	}
	var pick []string
	for _, i := range rng.Perm(len(funcs))[:k] {
		pick = append(pick, funcs[i])
	}
	return server.Spec{
		Funcs:  pick,
		Points: []string{"entry", "exits", "blocks"}[rng.Intn(3)],
		Mode:   []string{"dead", "spill"}[rng.Intn(2)],
	}
}

// newProgram assembles src and lists the block starts of funcs.
func newProgram(name, src string, funcs []string) (*program, error) {
	f, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		return nil, fmt.Errorf("assemble %s: %w", name, err)
	}
	raw, err := f.Write()
	if err != nil {
		return nil, fmt.Errorf("write %s: %w", name, err)
	}
	st, err := symtab.FromFile(f)
	if err != nil {
		return nil, fmt.Errorf("symtab %s: %w", name, err)
	}
	cfg, err := parse.Parse(st, parse.Options{})
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	p := &program{name: name, raw: raw, file: f, funcs: funcs}
	for _, fn := range funcs {
		pf, ok := cfg.FuncByName(fn)
		if !ok {
			return nil, fmt.Errorf("%s: no function %q", name, fn)
		}
		var starts []uint64
		for _, b := range pf.Blocks {
			starts = append(starts, b.Start)
		}
		p.blocks = append(p.blocks, starts)
	}
	return p, nil
}

// fibSource is workload.FibSource with its argument raised to n.
func fibSource(n int) string {
	return strings.Replace(workload.FibSource, "li a0, 12", fmt.Sprintf("li a0, %d", n), 1)
}

func fib(n int) int {
	a, b := 0, 1
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// randomFuncs names the n functions of workload.RandomProgram.
func randomFuncs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("fz%d", i)
	}
	return out
}

// randomProgramFuncs names the functions of a workload.RandomProgram
// source.
func randomProgramFuncs(src string) []string {
	return randomFuncs(strings.Count(src, "\t.type fz"))
}
