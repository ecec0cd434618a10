package nn

import (
	"math"

	"lbchat/internal/simrand"
	"lbchat/internal/tensor"
)

// Layer is a differentiable module operating on batched activations shaped
// (batch, features). Forward caches whatever Backward needs; a layer instance
// therefore serves one forward/backward pair at a time and is not safe for
// concurrent use. The fleet trains in parallel by giving every vehicle its
// own layer instances (one Policy each), never by sharing layers.
//
// Layers return SCRATCH tensors from Forward and Backward: the returned
// tensor is owned by the layer and overwritten on its next call. Callers
// that need the values past the next Forward/Backward must copy them (the
// model layer's loss/prediction paths already do).
type Layer interface {
	// Forward computes the layer output for a batch of inputs.
	Forward(x *tensor.Dense) *tensor.Dense
	// Backward receives dLoss/dOutput and returns dLoss/dInput, accumulating
	// parameter gradients along the way.
	Backward(grad *tensor.Dense) *tensor.Dense
	// Params returns the layer's trainable parameters (possibly empty).
	Params() ParamSet
}

// Dense is a fully connected layer: y = x·W + b.
type Dense struct {
	In, Out int
	W, B    *Param

	x *tensor.Dense // cached input
	// Scratch tensors reused across steps to keep the training hot path
	// allocation-free: the forward output, the weight-gradient accumulator,
	// and the input gradient. Reuse is safe because each is fully
	// overwritten per call and consumed before the next Forward/Backward
	// on this layer.
	out, wGrad, dx *tensor.Dense
}

var _ Layer = (*Dense)(nil)

// NewDense creates a fully connected layer with He-uniform initialization.
func NewDense(name string, in, out int, rng *simrand.Rand) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   NewParam(name+".W", in, out),
		B:   NewParam(name+".b", out),
	}
	bound := math.Sqrt(6.0 / float64(in))
	wd := d.W.Value.Data()
	for i := range wd {
		wd[i] = rng.Uniform(-bound, bound)
	}
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Dense) *tensor.Dense {
	d.x = x
	batch := x.Shape()[0]
	d.out = tensor.Reuse2D(d.out, batch, d.Out)
	out := d.out
	tensor.MatMulInto(out, x, d.W.Value)
	bd := d.B.Value.Data()
	od := out.Data()
	for i := 0; i < batch; i++ {
		row := od[i*d.Out : (i+1)*d.Out]
		for j, bv := range bd {
			row[j] += bv
		}
	}
	return out
}

// paramBackwarder is implemented by layers that can accumulate their
// parameter gradients without computing dLoss/dInput. Sequential uses it on
// its first layer, whose input gradient nobody reads (see BackwardParams).
type paramBackwarder interface {
	backwardParams(grad *tensor.Dense)
}

var (
	_ paramBackwarder = (*Dense)(nil)
	_ paramBackwarder = (*Conv2D)(nil)
	_ paramBackwarder = (*SplitTail)(nil)
)

// backwardParams runs l's params-only backward, or its full Backward when
// it has none.
func backwardParams(l Layer, grad *tensor.Dense) {
	if pb, ok := l.(paramBackwarder); ok {
		pb.backwardParams(grad)
		return
	}
	l.Backward(grad)
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Dense) *tensor.Dense {
	d.backwardParams(grad)
	// dx = grad·Wᵀ
	d.dx = tensor.Reuse2D(d.dx, grad.Shape()[0], d.In)
	tensor.MatMulTransBInto(d.dx, grad, d.W.Value)
	return d.dx
}

// backwardParams accumulates dW and db only; Backward adds dx on top, so
// both paths leave bit-identical parameter gradients.
func (d *Dense) backwardParams(grad *tensor.Dense) {
	batch := grad.Shape()[0]
	// dW += xᵀ·grad
	d.wGrad = tensor.Reuse2D(d.wGrad, d.In, d.Out)
	wGrad := d.wGrad
	tensor.MatMulTransAInto(wGrad, d.x, grad)
	d.W.Grad.AddInPlace(wGrad)
	// db += column sums of grad
	bg := d.B.Grad.Data()
	gd := grad.Data()
	for i := 0; i < batch; i++ {
		row := gd[i*d.Out : (i+1)*d.Out]
		for j, gv := range row {
			bg[j] += gv
		}
	}
}

// Params implements Layer.
func (d *Dense) Params() ParamSet { return ParamSet{d.W, d.B} }

// ReLU is the rectified-linear activation.
type ReLU struct {
	mask []bool
	// out and gout are scratch tensors reused across steps (fully
	// overwritten per call).
	out, gout *tensor.Dense
}

var _ Layer = (*ReLU)(nil)

// NewReLU creates a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Dense) *tensor.Dense {
	r.out = tensor.ReuseLike(r.out, x)
	out := r.out
	od := out.Data()
	xd := x.Data()
	if cap(r.mask) < len(od) {
		r.mask = make([]bool, len(od))
	}
	r.mask = r.mask[:len(od)]
	for i, v := range xd {
		if v > 0 {
			r.mask[i] = true
			od[i] = v
		} else {
			r.mask[i] = false
			od[i] = 0
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Dense) *tensor.Dense {
	r.gout = tensor.ReuseLike(r.gout, grad)
	out := r.gout
	od := out.Data()
	gd := grad.Data()
	for i, g := range gd {
		if r.mask[i] {
			od[i] = g
		} else {
			od[i] = 0
		}
	}
	return out
}

// Params implements Layer.
func (r *ReLU) Params() ParamSet { return nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	// y is the cached forward output (doubles as the reused output
	// scratch); gout is the reused backward scratch.
	y, gout *tensor.Dense
}

var _ Layer = (*Tanh)(nil)

// NewTanh creates a tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Dense) *tensor.Dense {
	t.y = tensor.ReuseLike(t.y, x)
	out := t.y
	od := out.Data()
	for i, v := range x.Data() {
		od[i] = math.Tanh(v)
	}
	return out
}

// Backward implements Layer.
func (t *Tanh) Backward(grad *tensor.Dense) *tensor.Dense {
	t.gout = tensor.ReuseLike(t.gout, grad)
	out := t.gout
	od := out.Data()
	yd := t.y.Data()
	for i, g := range grad.Data() {
		od[i] = g * (1 - yd[i]*yd[i])
	}
	return out
}

// Params implements Layer.
func (t *Tanh) Params() ParamSet { return nil }

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

var _ Layer = (*Sequential)(nil)

// NewSequential builds a sequential container from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Dense) *tensor.Dense {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *tensor.Dense) *tensor.Dense {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// BackwardParams is Backward for a network whose input gradient is not
// needed: every layer accumulates its parameter gradients exactly as in
// Backward, but the first layer skips computing dLoss/dInput when it can
// (Dense, Conv2D and a SplitTail around either). For a dense first layer
// that drops one of its three equal-size matmuls.
func (s *Sequential) BackwardParams(grad *tensor.Dense) {
	if len(s.Layers) == 0 {
		return
	}
	for i := len(s.Layers) - 1; i >= 1; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	backwardParams(s.Layers[0], grad)
}

// Params implements Layer.
func (s *Sequential) Params() ParamSet {
	var ps ParamSet
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
