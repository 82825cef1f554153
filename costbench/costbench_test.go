package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsTiny runs every workload at a tiny size and checks that each
// end-to-end metric is printed with its unit, that no check failed, and
// that the last line is the result JSON.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runPlain(w, 7, time.Second, tinySizes)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d operations failed", res.failed, res.attempted)
			}
			for _, m := range res.metrics {
				if !(m.value > 0) {
					t.Errorf("%s = %v, want > 0", m.name, m.value)
				}
			}
			var out bytes.Buffer
			if err := report(&out, res); err != nil {
				t.Fatal(err)
			}
			names := []string{"fail_ratio ratio"}
			for _, m := range append(endToEnd, tailOnly...) {
				names = append(names, m.name+" "+m.unit)
			}
			checkPrinted(t, out.String(), names)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the result JSON: %v", err)
			}
			if !last.Correct || len(last.Metrics) != len(endToEnd) {
				t.Fatalf("result %+v", last)
			}
		})
	}
}

// TestTracedTiny runs the traced run of every workload at a tiny size and
// checks that every per-layer metric is printed with its unit and that the
// span file holds spans carrying workload, op and parent args.
func TestTracedTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.json")
			res, err := runTraced(w, 7, time.Second, tinySizes, path)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Fatalf("%d of %d operations failed", res.failed, res.attempted)
			}
			var out bytes.Buffer
			if err := report(&out, res); err != nil {
				t.Fatal(err)
			}
			checkPrinted(t, out.String(), perLayerNames())
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var tf struct {
				TraceEvents []struct {
					Name string
					Args map[string]string
				}
			}
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatal(err)
			}
			parents := 0
			for _, ev := range tf.TraceEvents {
				if ev.Args["workload"] != w.name || ev.Args["op"] == "" {
					t.Fatalf("span %s args %v", ev.Name, ev.Args)
				}
				if ev.Args["parent"] != "" {
					parents++
				}
			}
			if parents == 0 {
				t.Fatal("no span names its parent")
			}
		})
	}
}

// TestWrongExpectationFails injects wrong expectations and checks that
// each shows in the failed count, and that the result is still printed
// with correct false and without the timings of the runs that failed,
// rather than the run aborting. A wrong expected exit code fails every
// run; a wrong expected entry count for fib fails only the DBI runs, whose
// per-block counters are checked against it.
func TestWrongExpectationFails(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inject func(p *program)
		absent string // a metric every run of which failed
		kept   string // a metric whose runs passed
	}{
		{"exit", func(p *program) { p.want.exit++ }, "native_ns_per_inst", "rewrite_ms"},
		{"dbi-counter", func(p *program) { p.fibN++ }, "dbi_ns_per_inst", "native_ns_per_inst"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, _ := findWorkload("fib")
			in, err := w.build(rand.New(rand.NewSource(7)), tinySizes)
			if err != nil {
				t.Fatal(err)
			}
			tc.inject(in.prog)
			b := newBench()
			b.execRound(in.prog, nil)
			res := b.finish(b.endToEnd(serveStats{}))
			var out bytes.Buffer
			if err := report(&out, res); err != nil {
				t.Fatalf("no result for a failed run: %v", err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]any
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the result JSON: %v", err)
			}
			if last.Correct || last.Failed == 0 {
				t.Fatalf("wrong expectation passed: %+v", last)
			}
			if _, ok := last.Metrics[tc.absent]; ok {
				t.Errorf("%s reported although every run of it failed", tc.absent)
			}
			if _, ok := last.Metrics[tc.kept]; !ok {
				t.Errorf("%s missing although its runs passed", tc.kept)
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the metrics
// the benchmark prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range bj.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	var want []string
	for _, m := range endToEnd {
		want = append(want, m.name+" "+m.unit)
	}
	if strings.Join(e2e, ",") != strings.Join(want, ",") {
		t.Errorf("end_to_end %v, benchmark prints %v", e2e, want)
	}
	if got, want := strings.Join(layers, ","), strings.Join(perLayerNames(), ","); got != want {
		t.Errorf("per_layer %v, benchmark prints %v", got, want)
	}
}

func perLayerNames() []string {
	var out []string
	for _, m := range perLayer {
		out = append(out, m.name+" "+m.unit)
	}
	for _, m := range serverLayer {
		out = append(out, m.name+" "+m.unit)
	}
	return append(out, "trace.overhead ratio")
}

// checkPrinted asserts that each "name unit" appears as a printed line.
func checkPrinted(t *testing.T, out string, names []string) {
	t.Helper()
	printed := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 {
			printed[f[0]+" "+f[2]] = true
		}
	}
	for _, n := range names {
		if !printed[n] {
			t.Errorf("%q not printed", n)
		}
	}
}

// TestHostClock checks that a recorded sample waits for the calibration
// that closes its bracket, and is then kept raw and scaled by that
// bracket's scale.
func TestHostClock(t *testing.T) {
	var h hostClock
	var s series
	h.calibrate()
	h.record(&s, 2)
	if len(s.raw) != 0 {
		t.Fatal("sample kept before its bracket closed")
	}
	scale := h.calibrate()
	if !(scale > 0) || len(s.raw) != 1 || s.raw[0] != 2 || s.scaled[0] != 2*scale {
		t.Fatalf("scale %v, series %+v", scale, s)
	}
	if h.calibrate(); len(s.raw) != 1 {
		t.Fatal("sample recorded twice")
	}
}
