package telemetry

import "sync"

// Sink consumes telemetry events. Engine emission is single-goroutine by
// construction (parallel phases buffer and emit serially), but sinks shipped
// by this package are additionally mutex-guarded so one sink can safely be
// shared across concurrent protocol runs.
type Sink interface {
	// Emit records one event.
	Emit(ev Event)
	// Close flushes buffered state and releases resources.
	Close() error
}

// Metrics is the optional side channel for measurements that must never
// enter the deterministic event stream: wall times, shard topology,
// scheduler and coreset-cache internals, trace-window chunk traffic. It is
// a separate interface — not an Event — so sinks that record events (JSONL,
// MemorySink) do not implement it, and their output stays byte-identical at
// every worker count, shard count, trace source and coreset arm. Aggregating
// sinks (Summary) fold the values into counters and fixed-bucket histograms
// named by KnownMetrics.
type Metrics interface {
	// Count adds delta to the named counter; a zero delta still creates it.
	Count(name string, delta int64)
	// Observe records one value into the named histogram.
	Observe(name string, v float64)
}

// MemorySink buffers every event in memory: the test sink, and the per-run
// buffer the experiment harness uses to serialize concurrent runs into one
// output stream.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Emit implements Sink.
func (m *MemorySink) Emit(ev Event) {
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
}

// Close implements Sink (no-op).
func (m *MemorySink) Close() error { return nil }

// Events returns the recorded events in emission order.
func (m *MemorySink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// Len returns the number of recorded events.
func (m *MemorySink) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.events)
}

// Drain replays the recorded events into dst in order and empties the sink.
func (m *MemorySink) Drain(dst Sink) {
	m.mu.Lock()
	events := m.events
	m.events = nil
	m.mu.Unlock()
	for _, ev := range events {
		dst.Emit(ev)
	}
}

// multiSink fans events (and side-channel metrics) out to several sinks.
type multiSink struct {
	sinks   []Sink
	metrics []Metrics
}

// Tee returns a sink that forwards every event to all given sinks (nils are
// skipped). Side-channel metrics are forwarded to the members that implement
// Metrics. A single non-nil sink is returned unwrapped.
func Tee(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	m := &multiSink{sinks: live}
	for _, s := range live {
		if o, ok := s.(Metrics); ok {
			m.metrics = append(m.metrics, o)
		}
	}
	return m
}

// Emit implements Sink.
func (m *multiSink) Emit(ev Event) {
	for _, s := range m.sinks {
		s.Emit(ev)
	}
}

// Count implements Metrics.
func (m *multiSink) Count(name string, delta int64) {
	for _, o := range m.metrics {
		o.Count(name, delta)
	}
}

// Observe implements Metrics.
func (m *multiSink) Observe(name string, v float64) {
	for _, o := range m.metrics {
		o.Observe(name, v)
	}
}

// Close implements Sink: closes every member, returning the first error.
func (m *multiSink) Close() error {
	var first error
	for _, s := range m.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
