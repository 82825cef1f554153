// Command costbench measures what instrumentation costs a running program,
// end to end and layer by layer: the same generated binary run natively,
// statically rewritten and under DBI, the rewrite itself, the sampling
// profiler, and the instrumentation service under closed-loop load. It
// checks every operation's output, and prints each metric by name and
// unit followed by one JSON result line. See README.md.
//
// Usage, from the repository root:
//
//	bash costbench/run.sh --workload fib --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 is a separate run
// that records spans around every call into the toolchain and prints the
// per-layer metrics, writing the spans to --trace-out when it ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"rvdyn/internal/obs"
)

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
}

// endToEnd lists the end-to-end metrics with their units, in print order.
// Every workload reports all of them. The tail latency they carry is p90:
// on a shared host, p99 is set by the host's own stalls and its run-to-run
// spread exceeds any usable bound, so p99 is printed (tailOnly) but not
// part of the result.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"native_ns_per_inst", "ns"},
	{"static_ns_per_inst", "ns"},
	{"dbi_ns_per_inst", "ns"},
	{"sampled_ns_per_inst", "ns"},
	{"rewrite_ms", "ms"},
	{"static_vclock_overhead", "ratio"},
	{"dbi_vclock_overhead", "ratio"},
	{"serve_rps", "req/s"},
	{"serve_cold_ms.p50", "ms"},
	{"serve_cold_ms.p90", "ms"},
	{"serve_warm_us.p50", "us"},
	{"serve_warm_us.p90", "us"},
}

// tailOnly lists the metrics printed as lines but left out of the result.
var tailOnly = []struct{ name, unit string }{
	{"serve_cold_ms.p99", "ms"},
	{"serve_warm_us.p99", "us"},
}

// result is one run's report. printed holds metrics printed as lines
// only.
type result struct {
	metrics   []metric
	printed   []metric
	attempted int
	failed    int
}

// checker counts operations and failed checks. A failed check is counted,
// never retried.
type checker struct {
	attempted, failed int
	first             []string
}

func (c *checker) op(what string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.first) < 10 {
			c.first = append(c.first, what+": "+err.Error())
		}
	}
}

// bench is one run's state.
type bench struct {
	chk    checker
	ex     execStats
	setupS series    // seconds per build of the inputs
	clock  hostClock // scales timings to the reference speed (calib.go)
}

// tracing records spans around the benchmark's calls into each layer, and
// holds the obs registry the traced operations report into. A nil
// *tracing is the untraced run.
type tracing struct {
	tr       *obs.Tracer
	workload string
	ops      atomic.Int64
	reg      *obs.Registry

	// The last sampled run's pprof write time and sample count.
	pprofMs float64
	samples uint64
}

// span is one open span and its operation id.
type span struct {
	s  *obs.Span
	id string
}

// begin opens a span on tid 0 with the workload, a fresh operation id and
// the parent's id as args.
func (t *tracing) begin(parent *span, layer, name string) *span {
	return t.beginOn(0, parent, layer, name)
}

// beginOn is begin on a given tid (the service client's is 1).
func (t *tracing) beginOn(tid int, parent *span, layer, name string) *span {
	if t == nil {
		return nil
	}
	id := strconv.FormatInt(t.ops.Add(1), 10)
	s := t.tr.Begin(tid, name, layer)
	s.SetArg("workload", t.workload)
	s.SetArg("op", id)
	if parent != nil {
		s.SetArg("parent", parent.id)
	}
	return &span{s: s, id: id}
}

func (s *span) end() {
	if s != nil {
		s.s.End()
	}
}

// Set-up runs at least setupReps times and for at least setupTime;
// setup_s is the median build. A build takes 7 ms (fib) to 200 ms
// (coldcode), so a fixed handful of builds leaves the cheap ones' median
// at the mercy of a single slow stretch of the host.
const (
	setupReps = 5
	setupTime = time.Second
)

func main() {
	name := flag.String("workload", "", "workload: matmul, fib, coldcode or serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 20, "seconds to measure")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default .bench_build/costbench-<workload>.trace.json)")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "costbench: need --workload matmul|fib|coldcode|serve, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	// One P: every part of the benchmark is one thread of work, and on a
	// shared host a second P adds cross-CPU wake-ups between the service
	// client and handler whose latency is set by the host's other tenants.
	// Garbage collection then runs on the same P and is charged to the
	// operations that caused it.
	runtime.GOMAXPROCS(1)
	budget := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "costbench-"+w.name+".trace.json")
		}
		res, err = runTraced(w, *seed, budget, fullSizes, path)
	} else {
		res, err = runPlain(w, *seed, budget, fullSizes)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "costbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "costbench:", err)
		os.Exit(1)
	}
}

// setup builds the workload's inputs from the same seed, repeatedly, and
// returns the last set; the build times go to b.setupS. Each build starts
// from a collected heap, so it does not pay for the previous one's
// garbage.
func (b *bench) setup(w workloadDef, seed int64, sz sizes) (*inputs, error) {
	var in *inputs
	for begin, n := time.Now(), 0; n < setupReps || time.Since(begin) < setupTime; n++ {
		in = nil
		runtime.GC()
		b.clock.calibrate()
		start := time.Now()
		var err error
		in, err = w.build(rand.New(rand.NewSource(seed)), sz)
		if err != nil {
			return nil, err
		}
		b.clock.record(&b.setupS, time.Since(start).Seconds())
	}
	b.clock.calibrate()
	return in, nil
}

// jobs is the worker width of the rewriter and the service: one job at a
// time. The host gives the benchmark a couple of shared CPUs, and a
// parallel rewrite there measures the host's scheduler more than the
// rewriter.
const jobs = 1

func newBench() *bench { return &bench{} }

// slices is how many times a run alternates between its exec and service
// phases. The host's speed drifts by tens of percent over seconds;
// spreading both phases over the whole run lets each of them see the same
// mix of fast and slow stretches.
const slices = 5

// alternate gives execShare of budget to exec rounds and the rest to
// driving svc, alternating in slices. An exec slice may overrun by one
// round; later slices make up for it, and every run has one round at least.
// The service slices start from a collected heap, as does each kind of
// exec run (repeat), so garbage one phase leaves is not charged to the
// other.
func (b *bench) alternate(svc *service, execShare float64, budget time.Duration, round func()) error {
	execBudget := time.Duration(float64(budget) * execShare)
	var spent time.Duration
	rounds := 0
	for s := 1; s <= slices; s++ {
		start := time.Now()
		for rounds == 0 || spent+time.Since(start) < execBudget*time.Duration(s)/slices {
			round()
			rounds++
		}
		spent += time.Since(start)
		runtime.GC()
		if err := b.drive(svc, (budget-execBudget)/slices); err != nil {
			return err
		}
	}
	return nil
}

// runPlain is the untraced run: the exec and service phases, alternating.
func runPlain(w workloadDef, seed int64, budget time.Duration, sz sizes) (*result, error) {
	b := newBench()
	in, err := b.setup(w, seed, sz)
	if err != nil {
		return nil, err
	}
	svc := newService(in, seed, nil)
	if err := b.alternate(svc, w.execShare, budget, func() { b.execRound(in.prog, nil) }); err != nil {
		return nil, err
	}
	sv := b.serveResults(svc)
	fmt.Printf("# %s seed %d: %d native and %d DBI runs; %d cold and %d warm requests (miss %d, partial %d, hit %d, coalesced %d)\n",
		w.name, seed, len(b.ex.nativeNs.raw), len(b.ex.dbiNs.raw), len(sv.coldMs.raw), len(sv.warmUs.raw),
		sv.states["miss"], sv.states["partial"], sv.states["hit"], sv.states["coalesced"])
	return b.finish(b.endToEnd(sv)), nil
}

// endToEnd computes the end-to-end metrics from the run's samples. Exec
// timings are the median of their samples, so a slowdown that hits most
// runs (garbage collection, say) moves them; the service metrics pool
// every request of the run. A metric whose every sample failed its checks
// is NaN. Every wall-time metric is scaled to the reference speed
// (calib.go); the raw values and the run's median scale are printed only.
func (b *bench) endToEnd(sv serveStats) *result {
	type value struct{ scaled, raw float64 }
	med := func(s series) value { return value{median(s.scaled), median(s.raw)} }
	q := func(s series, p float64) value { return value{quantile(s.scaled, p), quantile(s.raw, p)} }
	vals := map[string]value{
		"setup_s":                med(b.setupS),
		"native_ns_per_inst":     med(b.ex.nativeNs),
		"static_ns_per_inst":     med(b.ex.staticNs),
		"dbi_ns_per_inst":        med(b.ex.dbiNs),
		"sampled_ns_per_inst":    med(b.ex.sampledNs),
		"rewrite_ms":             med(b.ex.rewriteMs),
		"static_vclock_overhead": {median(b.ex.staticOverhead), math.NaN()},
		"dbi_vclock_overhead":    {median(b.ex.dbiOverhead), math.NaN()},
		"serve_rps":              {sv.rps, sv.rpsRaw},
		"serve_cold_ms.p50":      q(sv.coldMs, 0.5),
		"serve_cold_ms.p90":      q(sv.coldMs, 0.9),
		"serve_cold_ms.p99":      q(sv.coldMs, 0.99),
		"serve_warm_us.p50":      q(sv.warmUs, 0.5),
		"serve_warm_us.p90":      q(sv.warmUs, 0.9),
		"serve_warm_us.p99":      q(sv.warmUs, 0.99),
	}
	res := &result{}
	for _, m := range endToEnd {
		res.metrics = append(res.metrics, metric{m.name, m.unit, vals[m.name].scaled})
	}
	for _, m := range tailOnly {
		res.printed = append(res.printed, metric{m.name, m.unit, vals[m.name].scaled})
	}
	for _, m := range append(endToEnd, tailOnly...) {
		if v := vals[m.name]; !math.IsNaN(v.raw) { // the vclock overheads are exact, not timed
			res.printed = append(res.printed, metric{m.name + ".raw", m.unit, v.raw})
		}
	}
	res.printed = append(res.printed, metric{"host.scale", "ratio", median(b.clock.scales)})
	return res
}

// finish copies the operation counts into res and prints failures.
func (b *bench) finish(res *result) *result {
	res.attempted, res.failed = b.chk.attempted, b.chk.failed
	for _, msg := range b.chk.first {
		fmt.Fprintln(os.Stderr, "costbench: check failed:", msg)
	}
	return res
}

// report prints one "name value unit" line per metric, the printed-only
// lines, fail_ratio, and then the JSON result line.
func report(w io.Writer, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			// Every sample of it failed a check: the result reports the
			// failures, without the metric.
			if res.failed > 0 {
				fmt.Fprintf(w, "%-34s %16s %s (every run failed)\n", m.name, "-", m.unit)
				continue
			}
			return fmt.Errorf("%s was not measured", m.name)
		}
		fmt.Fprintf(w, "%-34s %16.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	for _, m := range res.printed {
		fmt.Fprintf(w, "%-34s %16.6g %s (printed only)\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "%-34s %16.6g %s (%d failed of %d attempted)\n", "fail_ratio",
		ratio(uint64(res.failed), uint64(res.attempted)), "ratio", res.failed, res.attempted)
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}
