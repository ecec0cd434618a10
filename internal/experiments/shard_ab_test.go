package experiments

import (
	"bytes"
	"testing"

	"lbchat/internal/core"
	"lbchat/internal/telemetry"
)

// TestShardABDeterminism is the sharded-engine acceptance criterion: a full
// LbChat run must produce a byte-identical telemetry event stream and
// bit-identical experiment metrics (loss curve, receive stats, final
// parameters) at every shard count × worker count combination, with the
// unsharded serial run as the reference. Per-shard scan stats flow through
// the Metrics side channel, never the event stream, so the streams must
// match even though shard counts differ.
func TestShardABDeterminism(t *testing.T) {
	runWith := func(shards, workers int) (*ProtocolRun, [][]byte) {
		mem := telemetry.NewMemorySink()
		env := envWithSink(t, mem)
		run, err := env.RunProtocol(ProtoLbChat, false, func(c *core.Config) {
			c.Shards = shards
			c.Workers = workers
		})
		if err != nil {
			t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
		}
		lines := make([][]byte, 0, mem.Len())
		for _, ev := range mem.Events() {
			line, err := telemetry.Encode(ev)
			if err != nil {
				t.Fatalf("encoding %s: %v", ev.Kind(), err)
			}
			lines = append(lines, line)
		}
		return run, lines
	}

	refRun, refStream := runWith(1, 1)
	if len(refStream) == 0 {
		t.Fatal("unsharded reference run emitted no events")
	}
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4, 8} {
			if shards == 1 && workers == 1 {
				continue
			}
			run, stream := runWith(shards, workers)
			if len(stream) != len(refStream) {
				t.Fatalf("shards=%d workers=%d: %d events, reference %d",
					shards, workers, len(stream), len(refStream))
			}
			for i := range stream {
				if !bytes.Equal(stream[i], refStream[i]) {
					t.Fatalf("shards=%d workers=%d: event %d differs:\ngot:       %s\nreference: %s",
						shards, workers, i, stream[i], refStream[i])
				}
			}
			sameRun(t, "vs serial unsharded", run, refRun)
		}
	}
}
