package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"aisched"
	"aisched/internal/memo"
)

// The untraced run: every request goes through the public facade exactly as
// a user would send it, one closed-loop client, a fresh Scheduler or
// StreamScheduler per repetition so every repetition does identical work.

// rep is one repetition's measurements.
type rep struct {
	latUs   []float64 // per-request latency
	busyNs  int64     // time spent inside facade calls
	wall    time.Duration
	insts   int
	bytes   uint64 // heap bytes allocated during the repetition
	objects uint64 // heap objects allocated during the repetition
	digest  digest
	memo    memo.Counters
	step    memo.Counters
}

// session runs one workload's repetitions and keeps the failure count.
type session struct {
	in        *inputs
	attempted int
	failed    int
	firstErr  error

	stream *streamCheck // kindStream only
}

func newSession(in *inputs) *session {
	s := &session{in: in}
	if in.kind == kindStream {
		s.stream = newStreamCheck(in)
	}
	return s
}

// fail records one failed request or check.
func (s *session) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// readAllocs returns the process's cumulative heap allocation. ReadMemStats
// flushes every thread's allocation cache first, so the counts are exact at
// the call; runtime/metrics counts a cached span's objects when the span is
// handed out, which would credit the checks' allocations to the requests.
func readAllocs() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// facadeRep runs one repetition through the facade, checks every result and,
// with sample set, runs the sampled checks into q.
func (s *session) facadeRep(sample bool, q *quality) rep {
	switch s.in.kind {
	case kindTrace:
		return s.traceRep(sample, q)
	case kindStream:
		return s.streamRep(sample, q, aisched.StreamOptions{Lookahead: 1})
	default:
		return s.programRep(sample, q)
	}
}

// chunk is how many requests are timed back to back before their results
// are checked. Checking in chunks keeps few results alive at once, and keeps
// the checks' own allocations out of the measured allocation counts.
const chunk = 64

// timeChunks sends n requests in chunks: prepare, when set, builds a chunk's
// inputs before its timed window; do sends request i, timed; check gets each
// result once its chunk has been sent.
func timeChunks[T any](r *rep, n int, prepare func(lo, hi int), do func(i int) (T, error), check func(i int, out T, err error)) {
	outs := make([]T, chunk)
	errs := make([]error, chunk)
	r.latUs = make([]float64, n)
	w0 := time.Now()
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		if prepare != nil {
			prepare(lo, hi)
		}
		b0, o0 := readAllocs()
		for i := lo; i < hi; i++ {
			t0 := time.Now()
			outs[i-lo], errs[i-lo] = do(i)
			d := time.Since(t0)
			r.latUs[i] = float64(d) / 1e3
			r.busyNs += int64(d)
		}
		b1, o1 := readAllocs()
		r.bytes += b1 - b0
		r.objects += o1 - o0
		for i := lo; i < hi; i++ {
			check(i, outs[i-lo], errs[i-lo])
		}
	}
	r.wall = time.Since(w0)
}

func (s *session) traceRep(sample bool, q *quality) rep {
	r := rep{digest: newDigest()}
	sc := aisched.NewScheduler(aisched.SchedulerOptions{})
	reqs := make([]traceReq, chunk)
	timeChunks(&r, s.in.requests, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			reqs[i-lo] = s.in.trace(i)
		}
	}, func(i int) (*aisched.TraceResult, error) {
		t := reqs[i%chunk]
		return sc.ScheduleTrace(t.g, t.m)
	}, func(i int, res *aisched.TraceResult, err error) {
		t := reqs[i%chunk]
		s.attempted++
		r.insts += t.g.Len()
		if err == nil {
			err = checkTrace(t.g, res, &r.digest, nil)
		}
		if err == nil && sample && sampled(i) {
			err = q.sampleTrace(t.g, t.m, res, true, nil)
		}
		if err != nil {
			s.fail(fmt.Errorf("request %d: %w", i, err))
		}
	})
	r.memo, r.step = sc.CacheCounters(), sc.StepCacheCounters()
	return r
}

func (s *session) programRep(sample bool, q *quality) rep {
	r := rep{digest: newDigest()}
	// One batch worker: on the 2-CPU host this was built on, two workers per
	// program were no faster, and lost up to 20% whenever the host contended
	// one CPU, which moved whole sets of runs past the bounds.
	sc := aisched.NewScheduler(aisched.SchedulerOptions{Workers: 1})
	timeChunks(&r, len(s.in.sources), nil, func(i int) (*program, error) {
		return compileProgram(sc, s.in.sources[i], s.in.m)
	}, func(i int, p *program, err error) {
		s.attempted++
		if err == nil {
			r.insts += p.insts()
			err = checkProgram(p, &r.digest, nil)
		}
		if err == nil && sample && sampled(i) {
			err = q.sampleProgram(p, s.in.m, true, nil)
		}
		if err != nil {
			s.fail(fmt.Errorf("program %d: %w", i, err))
		}
	})
	r.memo, r.step = sc.CacheCounters(), sc.StepCacheCounters()
	return r
}

// compileProgram is one compile-c request: compile the source, schedule
// every trace of the program, and schedule every single-block loop.
func compileProgram(sc *aisched.Scheduler, src string, m *aisched.Machine) (*program, error) {
	c, err := aisched.CompileC(src)
	if err != nil {
		return nil, err
	}
	ps, err := sc.ScheduleProgram(c, m)
	if err != nil {
		return nil, err
	}
	p := &program{c: c, ps: ps}
	for _, l := range c.Loops {
		body := c.Body(l)
		if body == nil {
			continue
		}
		g := aisched.BuildLoopGraph(body)
		st, err := sc.ScheduleLoop(g, m)
		if err != nil {
			return nil, err
		}
		p.loops = append(p.loops, loopOut{body: l.BodyBlocks[0], g: g, st: st})
	}
	return p, nil
}

// insts is the number of instructions scheduled for p: every trace plus
// every loop body.
func (p *program) insts() int {
	n := 0
	for _, tr := range p.ps.Traces {
		n += tr.G.Len()
	}
	for _, l := range p.loops {
		n += l.g.Len()
	}
	return n
}

// streamRep pushes every block of the workload into one StreamScheduler,
// checking each push's finalized blocks as they arrive. The trailing Flush
// is timed as one more request.
func (s *session) streamRep(sample bool, q *quality, opt aisched.StreamOptions) rep {
	c := s.stream
	c.reset()
	n := c.pushes()
	r := rep{latUs: make([]float64, 0, n+1)}
	var deps []aisched.StreamDep
	ss := aisched.NewStreamScheduler(s.in.m, opt)
	b0, o0 := readAllocs()
	w0 := time.Now()
	for bi := 0; bi < n; bi++ {
		b := c.block(bi, deps)
		deps = b.Deps
		t0 := time.Now()
		res, err := ss.Push(b)
		d := time.Since(t0)
		r.latUs = append(r.latUs, float64(d)/1e3)
		r.busyNs += int64(d)
		r.insts += len(b.Nodes)
		s.attempted++
		if err == nil {
			err = c.accept(res)
		}
		if err != nil {
			s.fail(fmt.Errorf("push %d: %w", bi, err))
		}
	}
	t0 := time.Now()
	res, err := ss.Flush()
	d := time.Since(t0)
	r.latUs = append(r.latUs, float64(d)/1e3)
	r.busyNs += int64(d)
	r.wall = time.Since(w0)
	b1, o1 := readAllocs()
	r.bytes, r.objects = b1-b0, o1-o0
	r.step = ss.StepCacheCounters()
	s.attempted++
	if err == nil {
		err = c.accept(res)
	}
	if err == nil {
		err = c.done()
	}
	if err == nil {
		err = ss.Close()
	}
	if err != nil {
		s.fail(fmt.Errorf("flush: %w", err))
	}
	r.digest = c.d
	if sample {
		for slot, pi := range s.in.slots {
			if !sampled(slot) {
				continue
			}
			if err := q.sampleSlot(c, slot, traceGraph(s.in.pool[pi]), nil); err != nil {
				s.fail(err)
			}
		}
	}
	return r
}

// streamReference replays the stream with the step cache off. The step
// cache is meant to be invisible, so every block's order and placement should
// match the cached run's. It returns how many blocks do not, and the first of
// them: a finding, not a failure (README.md, "Findings"), because the outputs
// stay valid.
func (s *session) streamReference() (divergent, first int) {
	cached := slices.Clone(s.stream.placed)
	s.streamRep(false, nil, aisched.StreamOptions{Lookahead: 1, StepCacheCapacity: -1})
	for bi, p := range s.stream.placed {
		if p != cached[bi] {
			if divergent == 0 {
				first = bi
			}
			divergent++
		}
	}
	return divergent, first
}
