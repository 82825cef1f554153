package main

import (
	"math"
	"time"
)

// Host-speed calibration.
//
// The benchmark is meant for shared hosts, and on them the same code does
// not run at one speed. On the 2-vCPU host the bounds were set on, an
// emulator run of fib takes either about 5 or about 8 ns per instruction,
// switching between the two every few tens of milliseconds as neighbours
// come and go, and the share of time spent in each mode drifts from one
// minute to the next. A median over a run lands wherever that share puts
// it: over six seeds run back to back, the raw medians of most metrics
// spread by 0.2–0.45 of their median.
//
// So every timed sample is bracketed by two timings of a fixed piece of
// reference work, and is multiplied by the reference host's time for that
// work over the mean of the two brackets: the sample then reads as if the
// host had run at the reference speed throughout. The reference work is
// plain Go in this package and calls nothing in the toolchain, so no
// change to the toolchain moves it, and a change that makes the toolchain
// slower shows in full. It has two parts, weighted equally, because the
// host's modes do not slow all code alike: a switch-dispatched register
// interpreter over a small memory (the emulator's inner loop), and small
// allocations linked into a map (the rewriter, the service and set-up).
// Over those six seeds, in 10-second runs, the scaled medians spread by
// 0.03–0.14, serve's static and DBI runs by up to 0.21. Either part alone
// did worse on some metrics (the interpreter alone on the service, the
// allocations alone on the sampled runs), and a cache-missing pointer
// chase, tried as a third part, made most metrics worse. The raw figures
// are printed too, with the run's median scale.

// The reference host's time for each part, about its median on the host
// the bounds were set on (2 vCPUs of a shared Intel Xeon). They only fix
// the unit; any constants give the same ratios between runs.
const (
	refInterpNs = 190e3
	refAllocNs  = 70e3
)

// A calibration times each part calibReps times and keeps the fastest.
// Each takes 0.05–0.2 ms, and the host's speed holds for tens of
// milliseconds, so all of them see the same speed; keeping the fastest
// drops a run that the garbage collector, which shares the benchmark's one
// P, interrupted.
const (
	calibSteps   = 50_000 // interpreter steps
	calibObjects = 300    // allocations
	calibReps    = 3
)

// calibOp is one instruction of the reference interpreter.
type calibOp struct{ code, a, b, c uint8 }

// calibProg is a counted loop of arithmetic, loads and stores that runs
// for ever; the interpreter stops it after calibSteps steps.
var calibProg = []calibOp{
	{5, 2, 7, 0}, // r2 = 7
	{0, 1, 1, 2}, // r1 += r2
	{1, 3, 1, 2}, // r3 = r1 ^ r2<<1
	{3, 3, 1, 0}, // mem[r1] = r3
	{2, 4, 3, 0}, // r4 = mem[r3]
	{0, 5, 5, 4}, // r5 += r4
	{0, 6, 6, 2}, // r6 += r2
	{4, 6, 7, 1}, // if r6 < r7 goto 1
	{5, 6, 0, 0}, // r6 = 0
	{1, 1, 1, 5}, // r1 = r1 ^ r5<<1
}

// calibSink keeps the reference work's results live.
var calibSink uint64

// calibInterp runs the reference interpreter for calibSteps steps.
func calibInterp() {
	var r [8]uint64
	r[7] = 1 << 10
	var mem [1024]uint64
	pc := 0
	for i := 0; i < calibSteps; i++ {
		o := calibProg[pc]
		switch o.code {
		case 0:
			r[o.a] = r[o.b] + r[o.c]
		case 1:
			r[o.a] = r[o.b] ^ r[o.c]<<1
		case 2:
			r[o.a] = mem[r[o.b]&1023]
		case 3:
			mem[r[o.b]&1023] = r[o.a]
		case 4:
			if r[o.a] < r[o.b] {
				pc = int(o.c)
				continue
			}
		case 5:
			r[o.a] = uint64(o.b)
		}
		if pc++; pc == len(calibProg) {
			pc = 0
		}
	}
	calibSink += r[5]
}

// calibObj is one allocation of the reference work.
type calibObj struct {
	vals []int
	next *calibObj
}

// calibAlloc makes calibObjects small allocations, each linked to the
// previous one and kept in a map.
func calibAlloc() {
	m := map[int]*calibObj{}
	var last *calibObj
	for i := 0; i < calibObjects; i++ {
		o := &calibObj{vals: make([]int, 4+i%8), next: last}
		m[i*7919%1021] = o
		last = o
	}
	calibSink += uint64(len(m))
}

// fastest returns the shortest of calibReps timings of f, in ns.
func fastest(f func()) float64 {
	best := math.Inf(1)
	for i := 0; i < calibReps; i++ {
		start := time.Now()
		f()
		best = min(best, float64(time.Since(start)))
	}
	return best
}

// series is one timed metric's samples, raw and scaled to the reference
// speed.
type series struct{ raw, scaled []float64 }

// pending is a sample waiting for the calibration that closes its
// bracket.
type pending struct {
	s *series
	v float64
}

// hostClock scales samples to the reference speed.
type hostClock struct {
	last    float64 // slowness of the latest calibration; 0 before the first
	scales  []float64
	pending []pending
}

// record adds v to s once the next calibration has closed its bracket.
func (h *hostClock) record(s *series, v float64) {
	h.pending = append(h.pending, pending{s, v})
}

// calibrate times the reference work and returns the scale of everything
// measured since the previous calibration, which it applies to the
// pending samples.
func (h *hostClock) calibrate() float64 {
	slow := (fastest(calibInterp)/refInterpNs + fastest(calibAlloc)/refAllocNs) / 2
	prev := h.last
	if prev == 0 {
		prev = slow
	}
	h.last = slow
	scale := 2 / (prev + slow)
	h.scales = append(h.scales, scale)
	for _, p := range h.pending {
		p.s.raw = append(p.s.raw, p.v)
		p.s.scaled = append(p.s.scaled, p.v*scale)
	}
	h.pending = h.pending[:0]
	return scale
}
