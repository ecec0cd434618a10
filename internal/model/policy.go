package model

import (
	"fmt"
	"math"

	"lbchat/internal/dataset"
	"lbchat/internal/nn"
	"lbchat/internal/simrand"
	"lbchat/internal/tensor"
)

// Config describes the policy architecture and training hyper-parameters.
type Config struct {
	// BEV geometry (channels, height, width).
	BEVChannels int
	BEVHeight   int
	BEVWidth    int

	// UseConv inserts a strided convolution front-end before the dense trunk.
	UseConv      bool
	ConvChannels int

	// Hidden is the width of the dense trunk.
	Hidden int
	// NumWaypoints is the number of predicted future waypoints (each is an
	// (x, y) pair in the normalized ego frame).
	NumWaypoints int

	// LR is the Adam learning rate.
	LR float64
	// L2Penalty is λ1 of Eq. (6) (structural-risk regularizer).
	L2Penalty float64
	// EntropyPenalty is λ2 of Eq. (6) (command-balance penalty).
	EntropyPenalty float64
	// GradClip bounds the gradient L2 norm per step (0 disables clipping).
	GradClip float64
}

// DefaultConfig returns the configuration used throughout the experiments:
// a compact trunk sized so that the co-simulation can train tens of replicas
// on CPU, with the paper's learning rate of 1e-4... scaled up (1e-3) to
// compensate for the smaller model; see DESIGN.md.
func DefaultConfig() Config {
	return Config{
		BEVChannels:    3,
		BEVHeight:      16,
		BEVWidth:       16,
		UseConv:        false,
		ConvChannels:   8,
		Hidden:         64,
		NumWaypoints:   5,
		LR:             1e-3,
		L2Penalty:      1e-4,
		EntropyPenalty: 0.6,
		GradClip:       5,
	}
}

// BEVSize returns the flattened BEV input size.
func (c Config) BEVSize() int { return c.BEVChannels * c.BEVHeight * c.BEVWidth }

// InputSize returns the full network input size: the BEV plus the
// ego-speed, distance-to-maneuver, and red-light-distance scalars.
func (c Config) InputSize() int { return c.BEVSize() + 3 }

// TargetSize returns the flattened waypoint-target size.
func (c Config) TargetSize() int { return 2 * c.NumWaypoints }

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.BEVChannels <= 0 || c.BEVHeight <= 0 || c.BEVWidth <= 0:
		return fmt.Errorf("model: invalid BEV geometry %dx%dx%d", c.BEVChannels, c.BEVHeight, c.BEVWidth)
	case c.Hidden <= 0:
		return fmt.Errorf("model: non-positive hidden width %d", c.Hidden)
	case c.NumWaypoints <= 0:
		return fmt.Errorf("model: non-positive waypoint count %d", c.NumWaypoints)
	case c.LR <= 0:
		return fmt.Errorf("model: non-positive learning rate %g", c.LR)
	case c.UseConv && c.ConvChannels <= 0:
		return fmt.Errorf("model: conv enabled with non-positive channel count %d", c.ConvChannels)
	}
	return nil
}

// Policy is the branched driving model. It is not safe for concurrent use.
type Policy struct {
	cfg    Config
	trunk  *nn.Sequential
	heads  [dataset.NumCommands]*nn.Dense
	opt    *nn.Adam
	params nn.ParamSet

	// batchX and batchY are the input and target scratch that buildBatch
	// fills on every TrainStep and Loss call, overwritten by the next one.
	// They grow to the largest batch the policy has been given and never
	// shrink, so they add at most one such batch — (InputSize+TargetSize)
	// float64s per sample — to the policy's heap.
	batchX, batchY *tensor.Dense
}

// New builds a policy with deterministic initialization from seed. All
// policies built with the same (cfg, seed) have identical parameters, which
// implements the paper's "same initialization on all vehicles" assumption.
func New(cfg Config, seed uint64) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := simrand.New(seed)
	var layers []nn.Layer
	trunkIn := cfg.InputSize()
	if cfg.UseConv {
		// The conv front-end sees only the BEV; the scalar inputs join at
		// the dense trunk via a SplitTail wrapper.
		conv := nn.NewConv2D("conv1", cfg.BEVChannels, cfg.BEVHeight, cfg.BEVWidth,
			cfg.ConvChannels, 3, 2, 1, rng.Derive("conv1"))
		layers = append(layers, nn.NewSplitTail(conv, 3), nn.NewReLU())
		trunkIn = conv.OutSize() + 3
	}
	layers = append(layers,
		nn.NewDense("fc1", trunkIn, cfg.Hidden, rng.Derive("fc1")),
		nn.NewReLU(),
		nn.NewDense("fc2", cfg.Hidden, cfg.Hidden, rng.Derive("fc2")),
		nn.NewReLU(),
	)
	p := &Policy{
		cfg:   cfg,
		trunk: nn.NewSequential(layers...),
		opt:   nn.NewAdam(cfg.LR),
	}
	for i := range p.heads {
		p.heads[i] = nn.NewDense(fmt.Sprintf("head%d", i), cfg.Hidden, cfg.TargetSize(),
			rng.DeriveIndexed("head", i))
	}
	p.params = append(nn.ParamSet{}, p.trunk.Params()...)
	for _, h := range p.heads {
		p.params = append(p.params, h.Params()...)
	}
	return p, nil
}

// Config returns the policy configuration.
func (p *Policy) Config() Config { return p.cfg }

// Params returns the policy's parameters in stable order.
func (p *Policy) Params() nn.ParamSet { return p.params }

// NumParams returns the total scalar parameter count.
func (p *Policy) NumParams() int { return p.params.NumElements() }

// WireSize returns the serialized (uncompressed) model size in bytes; this is
// the S of the compression ratio φ = S/S_c.
func (p *Policy) WireSize() int { return nn.WireSize(p.NumParams()) }

// Flat returns a copy of the flat parameter vector.
func (p *Policy) Flat() []float64 { return p.params.Flatten() }

// SetFlat loads a flat parameter vector into the policy.
func (p *Policy) SetFlat(flat []float64) error { return p.params.LoadFlat(flat) }

// Clone returns a policy with identical parameters and a fresh optimizer
// state.
func (p *Policy) Clone() *Policy {
	// Error cases are impossible: cfg was validated at construction and the
	// flat vector comes from an identically shaped policy.
	cp, err := New(p.cfg, 0)
	if err != nil {
		panic(fmt.Sprintf("model: cloning valid policy failed: %v", err))
	}
	if err := cp.SetFlat(p.Flat()); err != nil {
		panic(fmt.Sprintf("model: cloning valid policy failed: %v", err))
	}
	return cp
}

// forward runs the batch through trunk and heads, returning per-sample
// predictions shaped (batch, 2K). byCmd groups sample indices per head so
// backward can route gradients.
func (p *Policy) forward(x *tensor.Dense, cmds []dataset.Command) (*tensor.Dense, [dataset.NumCommands][]int) {
	batch := x.Shape()[0]
	hidden := p.trunk.Forward(x)
	var byCmd [dataset.NumCommands][]int
	for i, c := range cmds {
		byCmd[c.Index()] = append(byCmd[c.Index()], i)
	}
	preds := tensor.New(batch, p.cfg.TargetSize())
	for h, idxs := range byCmd {
		if len(idxs) == 0 {
			continue
		}
		sub := gatherRows(hidden, idxs)
		out := p.heads[h].Forward(sub)
		scatterRows(preds, out, idxs)
	}
	return preds, byCmd
}

// Predict returns the policy's waypoint prediction for one BEV + normalized
// ego speed + normalized distance-to-maneuver + command. It implements
// eval.Driver.
func (p *Policy) Predict(bev []uint8, speed, navDist, redDist float64, cmd dataset.Command) []float64 {
	flat := make([]float64, p.cfg.InputSize())
	for i, v := range bev {
		flat[i] = float64(v)
	}
	flat[len(flat)-3] = speed
	flat[len(flat)-2] = navDist
	flat[len(flat)-1] = redDist
	x := tensor.FromSlice(flat, 1, p.cfg.InputSize())
	preds, _ := p.forward(x, []dataset.Command{cmd})
	out := make([]float64, p.cfg.TargetSize())
	copy(out, preds.Data())
	return out
}

func gatherRows(src *tensor.Dense, idxs []int) *tensor.Dense {
	cols := src.Shape()[1]
	out := tensor.New(len(idxs), cols)
	for r, i := range idxs {
		copy(out.Data()[r*cols:(r+1)*cols], src.Data()[i*cols:(i+1)*cols])
	}
	return out
}

func scatterRows(dst, src *tensor.Dense, idxs []int) {
	cols := dst.Shape()[1]
	for r, i := range idxs {
		copy(dst.Data()[i*cols:(i+1)*cols], src.Data()[r*cols:(r+1)*cols])
	}
}

// buildBatch fills the policy's batch scratch (batchX, batchY) from items
// and returns it with the batch's commands and weights. items must be
// non-empty.
func (p *Policy) buildBatch(items []dataset.Weighted) (*tensor.Dense, *tensor.Dense, []dataset.Command, []float64) {
	batch := len(items)
	in, tgt := p.cfg.InputSize(), p.cfg.TargetSize()
	p.batchX = tensor.Reuse2D(p.batchX, batch, in)
	p.batchY = tensor.Reuse2D(p.batchY, batch, tgt)
	x, y := p.batchX, p.batchY
	cmds := make([]dataset.Command, batch)
	weights := make([]float64, batch)
	for i, it := range items {
		row := x.Data()[i*in : (i+1)*in]
		for j, v := range it.Sample.BEV {
			row[j] = float64(v)
		}
		// Reused scratch: zero what a short sample leaves unwritten.
		for j := len(it.Sample.BEV); j < in-3; j++ {
			row[j] = 0
		}
		row[in-3] = it.Sample.Speed
		row[in-2] = it.Sample.NavDist
		row[in-1] = it.Sample.RedDist
		ty := y.Data()[i*tgt : (i+1)*tgt]
		clear(ty[copy(ty, it.Sample.Targets):])
		cmds[i] = it.Sample.Command
		weights[i] = it.Weight
	}
	return x, y, cmds, weights
}

// TrainStep performs one optimizer step on the weighted batch and returns
// its Eq. (6) training loss. The weighted risk and the σ command-imbalance
// term come from the forward pass before the update; the λ1 L2 term is
// taken on the parameters after the optimizer step.
func (p *Policy) TrainStep(items []dataset.Weighted) float64 {
	if len(items) == 0 {
		return 0
	}
	x, y, cmds, weights := p.buildBatch(items)
	preds, byCmd := p.forward(x, cmds)

	batch := len(items)
	tgt := p.cfg.TargetSize()
	perSample := make([]float64, batch)
	var totalW float64
	for i := 0; i < batch; i++ {
		var acc float64
		pr := preds.Data()[i*tgt : (i+1)*tgt]
		ty := y.Data()[i*tgt : (i+1)*tgt]
		for j := range pr {
			dv := pr[j] - ty[j]
			acc += dv * dv
		}
		perSample[i] = acc / float64(tgt)
		totalW += weights[i]
	}
	if totalW <= 0 {
		return 0
	}

	// Command-rebalance multipliers: a first-order realization of the λ2
	// entropy penalty in Eq. (6) — commands whose mean loss exceeds the
	// overall mean get up-weighted gradients, pushing per-command losses
	// toward balance. See DESIGN.md §2.
	cmdMult := commandMultipliers(perSample, weights, cmds, p.cfg.EntropyPenalty)

	// dLoss/dPred with per-sample weights folded in.
	grad := tensor.New(batch, tgt)
	for i := 0; i < batch; i++ {
		w := weights[i] / totalW * cmdMult[cmds[i].Index()]
		pr := preds.Data()[i*tgt : (i+1)*tgt]
		ty := y.Data()[i*tgt : (i+1)*tgt]
		g := grad.Data()[i*tgt : (i+1)*tgt]
		for j := range pr {
			g[j] = 2 * w * (pr[j] - ty[j]) / float64(tgt)
		}
	}

	p.params.ZeroGrad()
	hiddenGrad := tensor.New(batch, p.cfg.Hidden)
	for h, idxs := range byCmd {
		if len(idxs) == 0 {
			continue
		}
		sub := gatherRows(grad, idxs)
		dHidden := p.heads[h].Backward(sub)
		scatterRows(hiddenGrad, dHidden, idxs)
	}
	p.trunk.BackwardParams(hiddenGrad)
	// λ1 term: L2 structural risk enters as weight decay on the gradient.
	if p.cfg.L2Penalty > 0 {
		for _, prm := range p.params {
			prm.Grad.AxpyInPlace(2*p.cfg.L2Penalty, prm.Value)
		}
	}
	if p.cfg.GradClip > 0 {
		nn.ClipGradNorm(p.params, p.cfg.GradClip)
	}
	p.opt.Step(p.params)

	return p.lossFromPerSample(perSample, weights, cmds)
}

// PerSampleLosses evaluates the unpenalized per-sample losses f(x; d) for
// each item, without touching gradients. Used by coreset layering and value
// assessment.
func (p *Policy) PerSampleLosses(items []dataset.Weighted) []float64 {
	if len(items) == 0 {
		return nil
	}
	x, y, cmds, _ := p.buildBatch(items)
	preds, _ := p.forward(x, cmds)
	tgt := p.cfg.TargetSize()
	out := make([]float64, len(items))
	for i := range items {
		var acc float64
		pr := preds.Data()[i*tgt : (i+1)*tgt]
		ty := y.Data()[i*tgt : (i+1)*tgt]
		for j := range pr {
			dv := pr[j] - ty[j]
			acc += dv * dv
		}
		out[i] = acc / float64(tgt)
	}
	return out
}

// Loss evaluates the full Eq. (6) loss of the policy on a weighted sample
// set: weighted empirical risk + λ1·‖x‖ + λ2·σ(x).
func (p *Policy) Loss(items []dataset.Weighted) float64 {
	if len(items) == 0 {
		return 0
	}
	perSample := p.PerSampleLosses(items)
	weights := make([]float64, len(items))
	cmds := make([]dataset.Command, len(items))
	for i, it := range items {
		weights[i] = it.Weight
		cmds[i] = it.Sample.Command
	}
	return p.lossFromPerSample(perSample, weights, cmds)
}

// LossOnDataset evaluates Eq. (6) over a whole dataset.
func (p *Policy) LossOnDataset(d *dataset.Dataset) float64 {
	return p.Loss(d.Items())
}

func (p *Policy) lossFromPerSample(perSample, weights []float64, cmds []dataset.Command) float64 {
	var risk, totalW float64
	for i, l := range perSample {
		risk += weights[i] * l
		totalW += weights[i]
	}
	if totalW > 0 {
		risk /= totalW
	}
	loss := risk
	if p.cfg.L2Penalty > 0 {
		loss += p.cfg.L2Penalty * p.params.L2Norm()
	}
	if p.cfg.EntropyPenalty > 0 {
		// The σ term is reported at a fixed small scale; EntropyPenalty
		// itself chiefly controls the gradient rebalancing strength.
		loss += 0.05 * CommandImbalance(perSample, weights, cmds)
	}
	return loss
}

// CommandImbalance computes σ(x) of Eq. (6): the KL divergence from uniform
// of the normalized per-command mean losses (equivalently log K minus the
// entropy of the loss distribution across commands). Zero means the model
// handles all observed commands equally well.
func CommandImbalance(perSample, weights []float64, cmds []dataset.Command) float64 {
	var sums, ws [dataset.NumCommands]float64
	for i, l := range perSample {
		idx := cmds[i].Index()
		sums[idx] += weights[i] * l
		ws[idx] += weights[i]
	}
	means := make([]float64, 0, dataset.NumCommands)
	var total float64
	for i := range sums {
		if ws[i] > 0 {
			m := sums[i] / ws[i]
			means = append(means, m)
			total += m
		}
	}
	if len(means) < 2 || total <= 0 {
		return 0
	}
	logK := math.Log(float64(len(means)))
	var entropy float64
	for _, m := range means {
		q := m / total
		if q > 0 {
			entropy -= q * math.Log(q)
		}
	}
	return logK - entropy
}

func commandMultipliers(perSample, weights []float64, cmds []dataset.Command, lambda float64) [dataset.NumCommands]float64 {
	var mult [dataset.NumCommands]float64
	for i := range mult {
		mult[i] = 1
	}
	if lambda <= 0 {
		return mult
	}
	var sums, ws [dataset.NumCommands]float64
	for i, l := range perSample {
		idx := cmds[i].Index()
		sums[idx] += weights[i] * l
		ws[idx] += weights[i]
	}
	var mean float64
	var seen int
	for i := range sums {
		if ws[i] > 0 {
			mean += sums[i] / ws[i]
			seen++
		}
	}
	if seen == 0 || mean == 0 {
		return mult
	}
	mean /= float64(seen)
	for i := range mult {
		if ws[i] > 0 && mean > 0 {
			ratio := (sums[i] / ws[i]) / mean
			// Linear in the loss imbalance, clamped for stability: commands
			// the model underserves (rare turn commands) get a materially
			// larger gradient share, which is what keeps every head trained
			// (the paper's stated purpose for the σ penalty).
			m := 1 + lambda*(ratio-1)
			mult[i] = math.Max(1-lambda, math.Min(1+4*lambda, m))
		}
	}
	return mult
}
