package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"rvdyn/internal/codegen"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/obs"
	"rvdyn/internal/pipeline"
	"rvdyn/internal/server"
)

// serveStats is the service phase's outcome over every slice of the run.
type serveStats struct {
	rps, rpsRaw float64 // replies per second of scaled and of raw time
	coldMs      series  // latency of requests answered miss or partial:*
	warmUs      series  // latency of requests answered hit or coalesced
	// states counts the replies by cache state, partial:* folded into
	// "partial".
	states map[string]int
}

// serveReq names one request: a pool input and one of its specs.
type serveReq struct{ input, spec int }

// stream is the seeded request mix: which inputs repeat and which specs
// change comes from the seed.
type stream struct {
	rng    *rand.Rand
	pool   []serveInput
	order  []int // novel inputs are taken in this seeded order, cyclically
	pos    int
	recent []serveReq // the last few requests, for repeats and spec changes
}

// The request mix is a chosen design point, not a measured one: the
// repository holds no traffic record. Its one reference is the CI server
// job, whose rvload burst must see a cache hit rate above 50%. The shares
// put the hit rate at about that floor, so the warm path and the cold path
// each carry about half the requests and give a tail quantile thousands of
// samples per run. Over ten seeds per workload the replies came out 35%
// miss, 12–15% partial and 50–54% hit (README.md).
const (
	// novelPct: a novel input is a full miss (analysis, liveness, plan,
	// encode, cache insert and eviction). A third of the requests keeps
	// the insert/evict path busy, and, since a miss costs several times a
	// hit, it takes most of the service's time, so serve_rps follows the
	// cold path.
	novelPct = 35
	// repeatPct: an exact repeat of a recent request is a hit. With the
	// spec changes that land on a pair seen before, this brings hits to
	// about half.
	repeatPct = 45
	// The remaining 20% ask for a recent input under its next spec: a
	// partial hit (analysis and liveness cached, plan and encode redone)
	// when the input's analysis is still cached, the third cache state.
	// recentLen: repeats and spec changes draw from the last 8 requests,
	// which name about three distinct inputs. Their rewritten ELFs, each
	// about the size of its input, fit the cache (four times the pool's
	// input bytes; see finish) many times over, so a repeat is a hit, not
	// a miss after eviction.
	recentLen = 8
)

func (s *stream) next() serveReq {
	var r serveReq
	switch x := s.rng.Intn(100); {
	case x < novelPct || len(s.recent) == 0:
		r = serveReq{input: s.order[s.pos%len(s.order)]}
		s.pos++
	case x < novelPct+repeatPct:
		r = s.recent[s.rng.Intn(len(s.recent))]
	default:
		last := s.recent[len(s.recent)-1]
		r = serveReq{input: last.input, spec: (last.spec + 1) % len(s.pool[last.input].specs)}
	}
	s.recent = append(s.recent, r)
	if len(s.recent) > recentLen {
		s.recent = s.recent[1:]
	}
	return r
}

// reply is one completed request.
type reply struct {
	req    serveReq
	status int
	state  string
	sum    [32]byte
	d      time.Duration
	scale  float64 // the host scale of d's calibration bracket
}

// service is the service under test, with the closed-loop client's
// replies so far.
type service struct {
	h    http.Handler
	st   *stream
	pool []serveInput
	reg  *obs.Registry // the service's metrics; nil when untraced
	t    *tracing

	replies             []reply // every drive call's replies
	busyRaw, busyScaled float64 // the drive calls' summed time, s
}

// newService builds the service's HTTP handler, with its cache bounded at
// in.cacheBytes. The client calls the handler in process,
// with no listener between them: on a shared host, a request over loopback
// TCP waits for the kernel to wake the other side, and that wake-up is set
// by the host's other tenants, not by the service. Everything the handler
// does — multipart parsing, analysis, rewrite, cache — is measured.
func newService(in *inputs, seed int64, t *tracing) *service {
	s := &service{pool: in.pool, t: t}
	if t != nil {
		s.reg = obs.NewRegistry()
	}
	svc := server.NewService(server.Options{Jobs: jobs, CacheBytes: in.cacheBytes, Metrics: s.reg})
	s.h = server.NewHandler(svc, server.HandlerOptions{})
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	s.st = &stream{rng: rng, pool: in.pool, order: rng.Perm(len(in.pool))}
	return s
}

// calibEvery is how often the client stops to calibrate. A request takes
// 0.05–5 ms, so a bracket holds a few to hundreds of them.
const calibEvery = 20 * time.Millisecond

// drive runs the closed-loop client for d: it sends its next request only
// after the previous reply. Every calibEvery it calibrates, and scales the
// replies and the service time since the previous calibration. It fails
// only when a request cannot be built.
func (b *bench) drive(s *service, d time.Duration) error {
	b.clock.calibrate()
	deadline := time.Now().Add(d)
	for seg, from := time.Now(), len(s.replies); ; {
		r, err := send(s.h, s.pool, s.st.next(), s.t)
		if err != nil {
			return err
		}
		s.replies = append(s.replies, r)
		now := time.Now()
		done := !now.Before(deadline)
		if done || now.Sub(seg) >= calibEvery {
			scale := b.clock.calibrate()
			for i := from; i < len(s.replies); i++ {
				s.replies[i].scale = scale
			}
			s.busyRaw += now.Sub(seg).Seconds()
			s.busyScaled += now.Sub(seg).Seconds() * scale
			seg, from = time.Now(), len(s.replies)
		}
		if done {
			return nil
		}
	}
}

// serveResults checks every reply against an offline pipeline.Instrument
// of the same input and spec. The stats pool the replies of every drive
// call.
func (b *bench) serveResults(s *service) serveStats {
	n := float64(len(s.replies))
	st := serveStats{rps: n / s.busyScaled, rpsRaw: n / s.busyRaw, states: map[string]int{}}
	refs := map[serveReq][32]byte{}
	for _, r := range s.replies {
		switch r.state {
		case "hit", "coalesced":
			st.warmUs.raw = append(st.warmUs.raw, us(r.d))
			st.warmUs.scaled = append(st.warmUs.scaled, us(r.d)*r.scale)
			st.states[r.state]++
		default:
			st.coldMs.raw = append(st.coldMs.raw, ms(r.d))
			st.coldMs.scaled = append(st.coldMs.scaled, ms(r.d)*r.scale)
			st.states[strings.SplitN(r.state, ":", 2)[0]]++
		}
		b.chk.op("serve", b.checkReply(s.pool, r, refs))
	}
	return st
}

// send makes one request of h and reads the whole response. It fails only
// when the request cannot be built; a bad response is the check's
// business.
func send(h http.Handler, pool []serveInput, req serveReq, t *tracing) (reply, error) {
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	spec, err := json.Marshal(pool[req.input].specs[req.spec])
	if err != nil {
		return reply{}, err
	}
	if err := mw.WriteField("spec", string(spec)); err != nil {
		return reply{}, err
	}
	fw, err := mw.CreateFormFile("binary", "input.elf")
	if err != nil {
		return reply{}, err
	}
	if _, err := fw.Write(pool[req.input].raw); err != nil {
		return reply{}, err
	}
	if err := mw.Close(); err != nil {
		return reply{}, err
	}
	hr, err := http.NewRequest(http.MethodPost, "/v1/instrument", &body)
	if err != nil {
		return reply{}, err
	}
	hr.Header.Set("Content-Type", mw.FormDataContentType())
	rec := httptest.NewRecorder()
	sp := t.beginOn(1, nil, "server", "POST /v1/instrument")
	start := time.Now()
	h.ServeHTTP(rec, hr)
	resp := rec.Result()
	data, err := io.ReadAll(resp.Body)
	d := time.Since(start)
	state := resp.Header.Get("X-Rvdynd-Cache")
	if sp != nil {
		sp.s.SetArg("cache", state)
	}
	sp.end()
	if err != nil {
		return reply{}, fmt.Errorf("read response: %w", err)
	}
	return reply{req: req, status: resp.StatusCode, state: state, sum: sha256.Sum256(data), d: d}, nil
}

// checkReply compares a response with the offline rewrite of the same
// input and spec, computed once per pair.
func (b *bench) checkReply(pool []serveInput, r reply, refs map[serveReq][32]byte) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d", r.status)
	}
	want, ok := refs[r.req]
	if !ok {
		elf, err := offlineRewrite(pool[r.req.input].raw, pool[r.req.input].specs[r.req.spec])
		if err != nil {
			return fmt.Errorf("offline reference: %w", err)
		}
		want = sha256.Sum256(elf)
		refs[r.req] = want
	}
	if r.sum != want {
		return fmt.Errorf("input %d spec %d: served ELF differs from the offline rewrite", r.req.input, r.req.spec)
	}
	return nil
}

// offlineRewrite is pipeline.Instrument of raw under spec.
func offlineRewrite(raw []byte, spec server.Spec) ([]byte, error) {
	f, err := elfrv.Read(raw)
	if err != nil {
		return nil, err
	}
	mode := codegen.ModeDeadRegister
	if spec.Mode == "spill" {
		mode = codegen.ModeSpillAlways
	}
	res, err := pipeline.Instrument(pipeline.Job{Name: "ref", File: f, Funcs: spec.Funcs},
		pipeline.Options{Jobs: jobs, Points: spec.Points, Mode: mode}, nil)
	if err != nil {
		return nil, err
	}
	return res.ELF, nil
}
