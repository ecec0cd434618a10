package core

import "testing"

// TestProbeLossMeanReusesScratch pins the satellite fix: steady-state probe
// evaluations must reuse the engine-held loss scratch rather than allocate a
// fresh []float64 per call (the model's own forward-pass allocations are out
// of scope here — the test checks the scratch backing array is stable).
func TestProbeLossMeanReusesScratch(t *testing.T) {
	eng, _ := tinyEnv(t, 3, true)
	eng.probeLossMean() // warm the scratch
	if len(eng.lossScratch) != len(eng.Vehicles) {
		t.Fatalf("scratch sized %d, want %d", len(eng.lossScratch), len(eng.Vehicles))
	}
	before := &eng.lossScratch[0]
	for i := 0; i < 10; i++ {
		eng.probeLossMean()
	}
	if &eng.lossScratch[0] != before {
		t.Fatal("probeLossMean reallocated its loss scratch on a steady-state call")
	}
}
