package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"lbchat/internal/core"
	"lbchat/internal/dataset"
	"lbchat/internal/eval"
	"lbchat/internal/geom"
	"lbchat/internal/trace"
)

// Span names. Each is "<module>.<boundary>": the layer the timed call
// enters, named after the package that implements it.
const (
	spanIteration = "bench.iteration"
	spanTick      = "core.tick"
	spanChat      = "core.chat"
	spanFinish    = "core.finish"
	spanFetch     = "trace.fetch"
	spanEvalRate  = "eval.rate"
	spanPredict   = "eval.predict"
	spanFleetTick = "shard.fleet_tick"
	spanRebuild   = "spatial.rebuild"
	spanPairs     = "spatial.pairs"
)

// noParent marks a root span, and a span recorded beside the blocking
// path rather than inside it (a trace prefetch on its own goroutine).
const noParent = -1

// span is one timed call across a layer boundary.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records the spans of one traced iteration in memory. The trace
// prefetcher reads chunks on its own goroutine, so recording is locked.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 4096)}
}

// open starts a span and returns its id.
func (t *tracer) open(name string, parent int32) int32 {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// close ends span id.
func (t *tracer) close(id int32) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// rename relabels span id (the engine's tail after its last tick).
func (t *tracer) rename(id int32, name string) {
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// summary folds the spans into per-name totals: call counts, total
// duration, self time (duration minus the children's durations), and the
// individual durations of the names listed in keep.
func (t *tracer) summary(keep ...string) spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := spanSummary{count: map[string]int{}, total: map[string]int64{}, self: map[string]int64{}, durs: map[string][]float64{}}
	for _, sp := range t.spans {
		s.count[sp.Name]++
		s.total[sp.Name] += sp.dur()
		s.self[sp.Name] += sp.dur()
		if sp.Parent != noParent {
			s.self[t.spans[sp.Parent].Name] -= sp.dur()
		}
	}
	for _, name := range keep {
		s.durs[name] = []float64{}
	}
	for _, sp := range t.spans {
		if d, ok := s.durs[sp.Name]; ok {
			s.durs[sp.Name] = append(d, float64(sp.dur()))
		}
	}
	return s
}

// spanSummary is a tracer's spans folded per name; times in nanoseconds.
type spanSummary struct {
	count map[string]int
	total map[string]int64
	self  map[string]int64
	durs  map[string][]float64
}

// seconds returns the total duration of name's spans in seconds.
func (s spanSummary) seconds(name string) float64 { return float64(s.total[name]) / 1e9 }

// selfSeconds returns name's self time in seconds.
func (s spanSummary) selfSeconds(name string) float64 { return float64(s.self[name]) / 1e9 }

// writeSpans writes the traced iterations' spans as JSON lines, one span
// per line tagged with its iteration number.
func writeSpans(path string, iters []int, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Iter int `json:"iter"`
		span
	}
	for k, tr := range tracers {
		for _, sp := range tr.spans {
			if err := enc.Encode(line{Iter: iters[k], span: sp}); err != nil {
				f.Close()
				return fmt.Errorf("writing span file: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing span file: %w", err)
	}
	return f.Close()
}

// timedProtocol decorates a core.Protocol: each OnTick call is a core.chat
// span inside a core.tick span that runs from the end of the previous
// OnTick to the end of this one, so a tick covers the engine's whole
// per-tick loop (trace advance, deferred events, contact scan, training,
// chat, probe loss).
type timedProtocol struct {
	core.Protocol
	tr         *tracer
	root, tick int32
}

func (p *timedProtocol) Setup(e *core.Engine) error {
	err := p.Protocol.Setup(e)
	p.tick = p.tr.open(spanTick, p.root)
	return err
}

func (p *timedProtocol) OnTick(e *core.Engine, now float64) {
	id := p.tr.open(spanChat, p.tick)
	p.Protocol.OnTick(e, now)
	p.tr.close(id)
	p.tr.close(p.tick)
	p.tick = p.tr.open(spanTick, p.root)
}

// finish closes the span left open after the last tick; it covers the
// engine's final event drain and probe, not a tick.
func (p *timedProtocol) finish() {
	if p.tick == noParent {
		return // Setup never ran
	}
	p.tr.close(p.tick)
	p.tr.rename(p.tick, spanFinish)
}

// timedChunks decorates a trace.ChunkSource: every ReadChunk is a
// trace.fetch span. The window calls it from its prefetch goroutine as
// well as from Advance, so fetch spans have no parent: they are reported
// beside the blocking path, whose wait the engine measures itself
// (trace.chunk_fetch_wait_ns).
type timedChunks struct {
	trace.ChunkSource
	tr *tracer
}

func (s timedChunks) ReadChunk(idx int, dst []geom.Point) (trace.ChunkFetch, error) {
	id := s.tr.open(spanFetch, noParent)
	f, err := s.ChunkSource.ReadChunk(idx, dst)
	s.tr.close(id)
	return f, err
}

// timedDriver decorates an eval.Driver: every Predict is an eval.predict
// span under the current eval.rate span.
type timedDriver struct {
	eval.Driver
	tr     *tracer
	parent int32
}

func (d timedDriver) Predict(bev []uint8, speed, navDist, redDist float64, cmd dataset.Command) []float64 {
	id := d.tr.open(spanPredict, d.parent)
	out := d.Driver.Predict(bev, speed, navDist, redDist, cmd)
	d.tr.close(id)
	return out
}
