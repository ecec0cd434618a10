package model

import (
	"testing"

	"lbchat/internal/simrand"
)

// trainLossSink keeps BenchmarkTrainStep's result live.
var trainLossSink float64

// BenchmarkTrainStep measures one local training step of the default policy
// (the inner loop of every vehicle's Algorithm 2 line 3) on a synthetic
// batch of 16, the engine's default batch size.
func BenchmarkTrainStep(b *testing.B) {
	cfg := DefaultConfig()
	pol, err := New(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	batch := syntheticSet(cfg, 16, simrand.New(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainLossSink = pol.TrainStep(batch)
	}
}
