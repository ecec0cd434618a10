package telemetry

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestHistogramBoundaries pins the bucket rule at the edges: a value exactly
// on an edge lands in the bucket that starts at that edge.
func TestHistogramBoundaries(t *testing.T) {
	h := NewHistogram(1, 2, 5)
	if len(h.Counts) != 4 {
		t.Fatalf("bucket count = %d, want 4", len(h.Counts))
	}
	cases := []struct {
		v      float64
		bucket int
	}{
		{0.99, 0},  // below first edge
		{1, 1},     // exactly first edge → starts bucket 1
		{1.5, 1},   // interior
		{2, 2},     // exactly second edge
		{4.999, 2}, // just under third edge
		{5, 3},     // exactly last edge → overflow bucket
		{100, 3},   // far overflow
		{-3, 0},    // negative underflow
	}
	for _, c := range cases {
		before := append([]int64(nil), h.Counts...)
		h.Observe(c.v)
		for i := range h.Counts {
			want := before[i]
			if i == c.bucket {
				want++
			}
			if h.Counts[i] != want {
				t.Errorf("Observe(%v): bucket %d count %d, want %d", c.v, i, h.Counts[i], want)
			}
		}
	}
	if h.N != int64(len(cases)) {
		t.Errorf("N = %d, want %d", h.N, len(cases))
	}
}

func TestHistogramRejectsUnsortedEdges(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-ascending edges accepted")
		}
	}()
	NewHistogram(1, 1)
}

func TestRegistryCountersAndCSV(t *testing.T) {
	r := NewRegistry()
	r.Inc("b.count", 2)
	r.Inc("a.count", 1)
	r.Inc("b.count", 3)
	r.Observe("lat", []float64{1, 10}, 0.5)
	r.Observe("lat", nil, 10)

	if got := r.Counter("b.count"); got != 5 {
		t.Errorf("b.count = %d", got)
	}
	if got := r.Counter("missing"); got != 0 {
		t.Errorf("missing counter = %d", got)
	}
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wantLines := []string{
		"counter,a.count,,1",
		"counter,b.count,,5",
		"hist,lat,lt:1,1",
		"hist,lat,ge:1,0",
		"hist,lat,ge:10,1",
		"hist,lat,count,2",
	}
	for _, w := range wantLines {
		if !strings.Contains(out, w) {
			t.Errorf("CSV missing %q:\n%s", w, out)
		}
	}
	// Counters must precede histograms and sort by name: deterministic.
	if strings.Index(out, "a.count") > strings.Index(out, "b.count") {
		t.Error("counters not sorted")
	}
}

func TestSummaryAggregation(t *testing.T) {
	s := NewSummary()
	s.Emit(RunStarted{Protocol: "LbChat", Lossless: true})
	s.Emit(ChatInitiated{Time: 10, A: 0, B: 1, Contact: 40, Window: 15})
	s.Emit(Transfer{Time: 10, From: 0, To: 1, Payload: PayloadCoreset, BytesRequested: 600_000, BytesDelivered: 600_000, Completed: true})
	s.Emit(CompressionChosen{Time: 10, From: 0, To: 1, Psi: 0.35, Bytes: 18_200_000})
	s.Emit(Transfer{Time: 10, From: 0, To: 1, Payload: PayloadModel, BytesRequested: 18_200_000, BytesDelivered: 9_000_000, Truncated: TruncDeadline})
	s.Emit(ChatCompleted{Time: 10, A: 0, B: 1, Elapsed: 14.2})
	s.Emit(Aggregation{Time: 11, Vehicle: 1, WSelf: 0.4, WPeer: 0.6})
	s.Emit(TrainStep{Time: 12, Vehicle: 0, Steps: 2, Loss: 0.5})
	s.Emit(LossRecorded{Time: 60, Loss: 0.42})
	s.Observe(MTrainWallNs, 5_000_000)

	if s.Protocol != "LbChat" || !s.Lossless {
		t.Errorf("run identity: %q lossless=%v", s.Protocol, s.Lossless)
	}
	if init, done, aborted := s.Chats(); init != 1 || done != 1 || aborted != 0 {
		t.Errorf("chats = %d/%d/%d", init, done, aborted)
	}
	m, c := s.BytesRequested()
	if m != 18_200_000 || c != 600_000 {
		t.Errorf("bytes requested = %d model, %d coreset", m, c)
	}
	if got := s.TotalBytesRequested(); got != 18_800_000 {
		t.Errorf("total bytes = %d", got)
	}
	gm, gc := s.BytesDelivered()
	if gm != 9_000_000 || gc != 600_000 {
		t.Errorf("bytes delivered = %d model, %d coreset", gm, gc)
	}
	if s.Reg.Counter(MTransferTruncate) != 1 {
		t.Errorf("truncated = %d", s.Reg.Counter(MTransferTruncate))
	}
	if s.Reg.Counter(MTrainSteps) != 2 {
		t.Errorf("train steps = %d", s.Reg.Counter(MTrainSteps))
	}
	if s.FinalLoss != 0.42 {
		t.Errorf("final loss = %v", s.FinalLoss)
	}
	if h := s.Reg.Hist(MTrainWallNs); h == nil || h.N != 1 {
		t.Error("wall histogram not recorded")
	}
	if h := s.Reg.Hist(MChatPsi); h == nil || h.N != 1 {
		t.Error("psi histogram not recorded")
	}
}

func TestMemorySinkAndTee(t *testing.T) {
	a, b := NewMemorySink(), NewMemorySink()
	s := NewSummary()
	tee := Tee(nil, a, s, b)
	tee.Emit(ChatInitiated{Time: 1, A: 0, B: 1})
	tee.Emit(ChatAborted{Time: 2, A: 0, B: 1, Reason: AbortCoresetExchange})
	if a.Len() != 2 || b.Len() != 2 {
		t.Errorf("tee fan-out lens = %d, %d", a.Len(), b.Len())
	}
	if _, _, aborted := s.Chats(); aborted != 1 {
		t.Error("summary member did not aggregate")
	}
	// Side-channel metrics route only to Metrics members.
	if m, ok := tee.(Metrics); !ok {
		t.Fatal("tee with a Summary member must expose Metrics")
	} else {
		m.Observe(MTrainWallNs, 1000)
	}
	if h := s.Reg.Hist(MTrainWallNs); h == nil || h.N != 1 {
		t.Error("wall observation not forwarded")
	}

	dst := NewMemorySink()
	a.Drain(dst)
	if a.Len() != 0 || dst.Len() != 2 {
		t.Errorf("drain: src %d, dst %d", a.Len(), dst.Len())
	}
	if dst.Events()[0].Kind() != KindChatInitiated {
		t.Error("drain reordered events")
	}

	// Tee with a single live sink unwraps.
	if got := Tee(nil, a); got != Sink(a) {
		t.Error("single-member tee not unwrapped")
	}
	if got := Tee(nil, nil); got != nil {
		t.Error("empty tee must be nil")
	}
}

// TestMetricsSideChannel pins the side channel's contract: Count and
// Observe through a Tee reach only the members that implement Metrics, a
// JSONL member's output is byte-identical with or without side-channel
// traffic, every histogram in the edges table is a known metric, and a
// zero-delta Count still creates its counter (so CSV dumps list it).
func TestMetricsSideChannel(t *testing.T) {
	events := []Event{
		RunStarted{Protocol: "LbChat"},
		TrainStep{Time: 1, Vehicle: 0, Steps: 1, Loss: 0.5},
		ContactOpen{Time: 2, A: 0, B: 1},
	}
	var plain bytes.Buffer
	pj := NewJSONL(&plain)
	for _, ev := range events {
		pj.Emit(ev)
	}
	if err := pj.Close(); err != nil {
		t.Fatal(err)
	}

	var teed bytes.Buffer
	mem, a, b := NewMemorySink(), NewSummary(), NewSummary()
	tee := Tee(NewJSONL(&teed), mem, a, b)
	m, ok := tee.(Metrics)
	if !ok {
		t.Fatal("tee must expose Metrics")
	}
	for _, ev := range events {
		tee.Emit(ev)
		m.Count(MShardPairs, 3)
		m.Observe(MShardLocals, 20)
	}
	if err := tee.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(teed.Bytes(), plain.Bytes()) {
		t.Errorf("JSONL output changed by side-channel traffic:\n%s\nwant:\n%s", teed.Bytes(), plain.Bytes())
	}
	if mem.Len() != len(events) {
		t.Errorf("memory sink holds %d events, want %d", mem.Len(), len(events))
	}
	for _, s := range []*Summary{a, b} {
		if got := s.Reg.Counter(MShardPairs); got != 9 {
			t.Errorf("summary counter %s = %d, want 9", MShardPairs, got)
		}
		if h := s.Reg.Hist(MShardLocals); h == nil || h.N != 3 || h.Counts[1] != 3 {
			t.Errorf("summary histogram %s = %+v, want 3 observations in [16, 64)", MShardLocals, h)
		}
	}

	known := KnownMetrics()
	for name := range histEdges {
		if !slices.Contains(known, name) {
			t.Errorf("histogram %q has edges but is not in KnownMetrics", name)
		}
	}

	s := NewSummary()
	s.Count(MSchedShardBatches, 0)
	var csv strings.Builder
	if err := s.Reg.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if want := "counter," + MSchedShardBatches + ",,0\n"; csv.String() != want {
		t.Errorf("zero-delta Count rendered %q, want %q", csv.String(), want)
	}
}
