package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Span names: one per layer boundary the traced run times from outside.
// spRequest is the root of each decomposed request; everything else is a
// layer.
const (
	spRequest = iota
	spFingerprint
	spMemoLookup
	spLookahead
	spClone
	spMinic
	spCfg
	spDeps
	spBatch
	spLoops
	spPush
	spSimulate
	spValidate
	spCSR
	spRank
	spIdle
	numSpans
)

var spanNames = [numSpans]string{
	spRequest:     "request",
	spFingerprint: "graph.fingerprint",
	spMemoLookup:  "memo.lookup",
	spLookahead:   "core.lookahead",
	spClone:       "core.clone",
	spMinic:       "minic.compile",
	spCfg:         "cfg.select",
	spDeps:        "deps.build",
	spBatch:       "aisched.batch",
	spLoops:       "loops.schedule",
	spPush:        "stream.push",
	spSimulate:    "hw.simulate",
	spValidate:    "sched.validate",
	spCSR:         "graph.csr",
	spRank:        "rank.local",
	spIdle:        "idle.local",
}

// span is one timed call. Spans nest strictly (the traced run is one
// goroutine), so a span's children are the spans whose parent it is.
type span struct {
	name       int32
	req        int32 // request index, -1 outside requests
	parent     int32 // index of the enclosing span, -1 at top level
	start, end int64 // nanoseconds since the tracer's epoch
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// check functions shared with the untraced run take one unconditionally.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
	req   int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), req: -1} }

// begin opens a span and returns its index.
func (t *tracer) begin(name int) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: int32(name), req: t.req, parent: parent,
		start: int64(time.Since(t.epoch))})
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// beginRequest opens the root span of request req.
func (t *tracer) beginRequest(req int) int32 {
	t.req = int32(req)
	return t.begin(spRequest)
}

// endRequest closes a request's root span.
func (t *tracer) endRequest(i int32) {
	t.end(i)
	t.req = -1
}

// layerStats aggregates one span name over a traced repetition.
type layerStats struct {
	calls  int
	selfNs int64
	durUs  []float64 // inclusive duration of each call
}

// aggregate folds the recorded spans into per-name statistics. covered is
// the time request roots spend inside their children.
func (t *tracer) aggregate(into *[numSpans]layerStats) (requestNs, coveredNs int64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		dur := s.end - s.start
		ls := &into[s.name]
		ls.calls++
		ls.selfNs += dur - child[i]
		ls.durUs = append(ls.durUs, float64(dur)/1e3)
		if s.name == spRequest {
			requestNs += dur
			coveredNs += child[i]
		}
	}
	return requestNs, coveredNs
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// Perfetto), with each span's request and parent in its args.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type args struct {
		Req    int32 `json:"req"`
		Parent int32 `json:"parent"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		b, err := json.Marshal(event{Name: spanNames[s.name], Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: 1, Args: args{Req: s.req, Parent: s.parent}})
		if err != nil {
			return err
		}
		w.Write(b)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
