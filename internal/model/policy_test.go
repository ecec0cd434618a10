package model

import (
	"math"
	"testing"

	"lbchat/internal/dataset"
	"lbchat/internal/nn"
	"lbchat/internal/simrand"
	"lbchat/internal/tensor"
)

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.BEVHeight, cfg.BEVWidth = 6, 6
	cfg.Hidden = 16
	cfg.NumWaypoints = 2
	return cfg
}

// syntheticSet builds samples whose targets depend deterministically on the
// BEV content, speed, and command — learnable structure.
func syntheticSet(cfg Config, n int, rng *simrand.Rand) []dataset.Weighted {
	out := make([]dataset.Weighted, 0, n)
	for i := 0; i < n; i++ {
		bev := make([]uint8, cfg.BEVSize())
		ones := 0
		for j := range bev {
			if rng.Bernoulli(0.3) {
				bev[j] = 1
				ones++
			}
		}
		speed := rng.Float64()
		cmd := dataset.Command(rng.Intn(dataset.NumCommands) + 1)
		density := float64(ones) / float64(len(bev))
		targets := make([]float64, cfg.TargetSize())
		for k := range targets {
			targets[k] = 0.3*speed + 0.2*density + 0.05*float64(cmd.Index())
		}
		out = append(out, dataset.Weighted{
			Sample: dataset.Sample{BEV: bev, Command: cmd, Speed: speed, NavDist: 1, Targets: targets},
			Weight: 1,
		})
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Hidden = 0
	if bad.Validate() == nil {
		t.Error("zero hidden accepted")
	}
	bad = DefaultConfig()
	bad.LR = 0
	if bad.Validate() == nil {
		t.Error("zero LR accepted")
	}
	bad = DefaultConfig()
	bad.BEVHeight = -1
	if bad.Validate() == nil {
		t.Error("negative BEV accepted")
	}
}

func TestSameSeedSameInit(t *testing.T) {
	cfg := tinyConfig()
	a, err := New(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(cfg, 5)
	fa, fb := a.Flat(), b.Flat()
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatal("same seed produced different parameters")
		}
	}
	c, _ := New(cfg, 6)
	diff := 0
	for i, v := range c.Flat() {
		if v != fa[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical parameters")
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	cfg := tinyConfig()
	pol, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(2)
	data := syntheticSet(cfg, 256, rng)
	before := pol.Loss(data)
	for step := 0; step < 300; step++ {
		batch := make([]dataset.Weighted, 16)
		for i := range batch {
			batch[i] = data[rng.Intn(len(data))]
		}
		pol.TrainStep(batch)
	}
	after := pol.Loss(data)
	t.Logf("loss %v -> %v", before, after)
	if after > before/2 {
		t.Errorf("training barely reduced loss: %v -> %v", before, after)
	}
}

func TestCloneIsIndependentCopy(t *testing.T) {
	cfg := tinyConfig()
	pol, _ := New(cfg, 1)
	rng := simrand.New(3)
	data := syntheticSet(cfg, 32, rng)
	cp := pol.Clone()
	if lossA, lossB := pol.Loss(data), cp.Loss(data); lossA != lossB {
		t.Errorf("clone loss differs: %v vs %v", lossA, lossB)
	}
	cp.TrainStep(data)
	if pol.Loss(data) != cp.Loss(data) {
		// Expected: training the clone must not affect the original.
		orig := pol.Flat()
		reclone := pol.Clone().Flat()
		for i := range orig {
			if orig[i] != reclone[i] {
				t.Fatal("training the clone mutated the original")
			}
		}
	} else {
		t.Error("training the clone had no effect")
	}
}

func TestFlatSetFlatRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	pol, _ := New(cfg, 1)
	flat := pol.Flat()
	for i := range flat {
		flat[i] = float64(i%7) / 10
	}
	if err := pol.SetFlat(flat); err != nil {
		t.Fatal(err)
	}
	got := pol.Flat()
	for i := range flat {
		if got[i] != flat[i] {
			t.Fatal("round trip mismatch")
		}
	}
	if err := pol.SetFlat(flat[:5]); err == nil {
		t.Error("short vector accepted")
	}
}

func TestPredictUsesCommandHead(t *testing.T) {
	cfg := tinyConfig()
	pol, _ := New(cfg, 1)
	bev := make([]uint8, cfg.BEVSize())
	bev[3] = 1
	a := pol.Predict(bev, 0.5, 1, 1, dataset.CmdLeft)
	b := pol.Predict(bev, 0.5, 1, 1, dataset.CmdRight)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Error("different commands produced identical predictions")
	}
	if len(a) != cfg.TargetSize() {
		t.Errorf("prediction size = %d", len(a))
	}
}

func TestPredictDeterministic(t *testing.T) {
	cfg := tinyConfig()
	pol, _ := New(cfg, 1)
	bev := make([]uint8, cfg.BEVSize())
	a := pol.Predict(bev, 0.2, 0.8, 1, dataset.CmdFollow)
	b := pol.Predict(bev, 0.2, 0.8, 1, dataset.CmdFollow)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("prediction not deterministic")
		}
	}
}

func TestPerSampleLossesMatchLoss(t *testing.T) {
	cfg := tinyConfig()
	cfg.L2Penalty = 0
	cfg.EntropyPenalty = 0
	pol, _ := New(cfg, 1)
	rng := simrand.New(4)
	data := syntheticSet(cfg, 64, rng)
	per := pol.PerSampleLosses(data)
	var mean float64
	for _, l := range per {
		mean += l
	}
	mean /= float64(len(per))
	if math.Abs(pol.Loss(data)-mean) > 1e-9 {
		t.Errorf("Loss %v != mean per-sample %v (penalties disabled)", pol.Loss(data), mean)
	}
}

func TestLossIncludesPenalties(t *testing.T) {
	cfg := tinyConfig()
	pol, _ := New(cfg, 1)
	rng := simrand.New(5)
	data := syntheticSet(cfg, 64, rng)
	withPenalty := pol.Loss(data)
	cfgNo := cfg
	cfgNo.L2Penalty = 0
	cfgNo.EntropyPenalty = 0
	bare, _ := New(cfgNo, 1)
	if err := bare.SetFlat(pol.Flat()); err != nil {
		t.Fatal(err)
	}
	if withPenalty <= bare.Loss(data) {
		t.Errorf("Eq.(6) penalties missing: %v <= %v", withPenalty, bare.Loss(data))
	}
}

func TestCommandImbalance(t *testing.T) {
	// Equal per-command losses → zero imbalance.
	per := []float64{1, 1, 1, 1}
	w := []float64{1, 1, 1, 1}
	cmds := []dataset.Command{dataset.CmdFollow, dataset.CmdLeft, dataset.CmdRight, dataset.CmdStraight}
	if got := CommandImbalance(per, w, cmds); math.Abs(got) > 1e-12 {
		t.Errorf("balanced imbalance = %v", got)
	}
	// Extremely skewed losses → positive imbalance.
	per = []float64{10, 0.001, 0.001, 0.001}
	if got := CommandImbalance(per, w, cmds); got < 0.5 {
		t.Errorf("skewed imbalance = %v", got)
	}
	// Single command: undefined, reported as zero.
	if got := CommandImbalance([]float64{5}, []float64{1}, cmds[:1]); got != 0 {
		t.Errorf("single-command imbalance = %v", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	cfg := tinyConfig()
	pol, _ := New(cfg, 1)
	if pol.TrainStep(nil) != 0 {
		t.Error("empty TrainStep should return 0")
	}
	if pol.Loss(nil) != 0 {
		t.Error("empty Loss should return 0")
	}
	if pol.PerSampleLosses(nil) != nil {
		t.Error("empty PerSampleLosses should return nil")
	}
}

func TestWireSize(t *testing.T) {
	cfg := tinyConfig()
	pol, _ := New(cfg, 1)
	if pol.WireSize() <= pol.NumParams() {
		t.Errorf("wire size %d vs %d params", pol.WireSize(), pol.NumParams())
	}
}

func TestConvVariantTrains(t *testing.T) {
	cfg := tinyConfig()
	cfg.UseConv = true
	cfg.ConvChannels = 4
	pol, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(6)
	data := syntheticSet(cfg, 128, rng)
	before := pol.Loss(data)
	for step := 0; step < 150; step++ {
		batch := make([]dataset.Weighted, 16)
		for i := range batch {
			batch[i] = data[rng.Intn(len(data))]
		}
		pol.TrainStep(batch)
	}
	if after := pol.Loss(data); after >= before {
		t.Errorf("conv policy failed to learn: %v -> %v", before, after)
	}
}

// fullBackward hides its layer's params-only backward path from
// nn.Sequential, so the trunk's first layer computes dLoss/dInput as well —
// the reference path TrainStep used before it skipped that gradient.
type fullBackward struct {
	nn.Layer
	calls int
}

func (f *fullBackward) Backward(grad *tensor.Dense) *tensor.Dense {
	f.calls++
	return f.Layer.Backward(grad)
}

func TestTrainStepMatchesFullInputGradient(t *testing.T) {
	for _, useConv := range []bool{false, true} {
		cfg := tinyConfig()
		cfg.UseConv = useConv
		fast, err := New(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := New(cfg, 3)
		oracle := &fullBackward{Layer: ref.trunk.Layers[0]}
		ref.trunk.Layers[0] = oracle
		rng := simrand.New(4)
		data := syntheticSet(cfg, 64, rng)
		const steps = 20
		for step := 0; step < steps; step++ {
			// Alternate batch sizes so the reused batch scratch shrinks
			// and grows between steps.
			batch := make([]dataset.Weighted, 8+8*(step%2))
			for i := range batch {
				batch[i] = data[rng.Intn(len(data))]
			}
			lf, lr := fast.TrainStep(batch), ref.TrainStep(batch)
			if math.Float64bits(lf) != math.Float64bits(lr) {
				t.Fatalf("conv=%v step %d: loss %v, reference %v", useConv, step, lf, lr)
			}
			ff, fr := fast.Flat(), ref.Flat()
			for i := range ff {
				if math.Float64bits(ff[i]) != math.Float64bits(fr[i]) {
					t.Fatalf("conv=%v step %d: param %d = %v, reference %v", useConv, step, i, ff[i], fr[i])
				}
			}
		}
		if oracle.calls != steps {
			t.Fatalf("conv=%v: reference computed the input gradient %d times, want %d", useConv, oracle.calls, steps)
		}
		// A Loss after the batch scratch has grown and shrunk must match
		// one from a policy whose scratch is fresh.
		fast.Loss(data)
		small := data[:5]
		if got, want := fast.Loss(small), fast.Clone().Loss(small); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("conv=%v: loss on reused scratch %v, fresh %v", useConv, got, want)
		}
	}
}
