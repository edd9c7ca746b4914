package nn

import (
	"fmt"
	"math"

	"h2onas/internal/tensor"
)

// Optimizer applies one update step to a set of parameters from their
// accumulated gradients, then expects the caller to zero the gradients.
type Optimizer interface {
	Step(params []*Param)
}

// SGD is stochastic gradient descent with optional classical momentum and
// L2 weight decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*Param]*tensor.Matrix
}

// NewSGD returns an SGD optimizer with the given learning rate.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Step applies v ← μv + g, p ← p − lr·v (plain p ← p − lr·g when μ = 0).
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		g := p.Grad
		if o.WeightDecay != 0 {
			tensor.AXPY(g, o.WeightDecay, p.Value)
		}
		if o.Momentum != 0 {
			if o.velocity == nil {
				o.velocity = make(map[*Param]*tensor.Matrix)
			}
			v := o.velocity[p]
			if v == nil {
				v = tensor.New(g.Rows, g.Cols)
				o.velocity[p] = v
			}
			for i := range v.Data {
				v.Data[i] = o.Momentum*v.Data[i] + g.Data[i]
			}
			g = v
		}
		tensor.AXPY(p.Value, -o.LR, g)
	}
}

// Adam is the Adam optimizer with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*Param]*tensor.Matrix
	v map[*Param]*tensor.Matrix
}

// NewAdam returns an Adam optimizer with standard defaults
// (β₁=0.9, β₂=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one bias-corrected Adam update.
func (o *Adam) Step(params []*Param) {
	o.t++
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m := o.m[p]
		if m == nil {
			// A parameter the optimizer has never stepped and whose gradient
			// is all-zero would get zero moments and a zero update — skipping
			// it (moments stay unallocated) is bitwise identical and avoids
			// walking every untouched parameter each step. A weight-sharing
			// search leaves most parameter bytes (unsampled embedding tables,
			// depth-sweep layers) in exactly this state for many steps.
			if allZero(p.Grad.Data) {
				continue
			}
			m = o.alloc(p)
		}
		v := o.v[p]
		for i, g := range p.Grad.Data {
			m.Data[i] = o.Beta1*m.Data[i] + (1-o.Beta1)*g
			v.Data[i] = o.Beta2*v.Data[i] + (1-o.Beta2)*g*g
			mhat := m.Data[i] / c1
			vhat := v.Data[i] / c2
			p.Value.Data[i] -= o.LR * mhat / (math.Sqrt(vhat) + o.Eps)
		}
	}
}

// alloc lazily allocates p's moment matrices.
func (o *Adam) alloc(p *Param) *tensor.Matrix {
	if o.m == nil {
		o.m = make(map[*Param]*tensor.Matrix)
		o.v = make(map[*Param]*tensor.Matrix)
	}
	m := tensor.New(p.Grad.Rows, p.Grad.Cols)
	o.m[p] = m
	o.v[p] = tensor.New(p.Grad.Rows, p.Grad.Cols)
	return m
}

// WeightsState returns a copy of every parameter's values, in order — the
// weight payload of a search checkpoint.
func WeightsState(params []*Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.Value.Data...)
	}
	return out
}

// LoadWeights copies values exported by WeightsState back into params.
// The copy is in place, so replicas sharing value storage with params see
// the restored values too. Mismatched shapes are rejected before anything
// is applied.
func LoadWeights(params []*Param, w [][]float64) error {
	if len(w) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d parameter tensors, model has %d", len(w), len(params))
	}
	for i, p := range params {
		if len(w[i]) != len(p.Value.Data) {
			return fmt.Errorf("nn: parameter %d (%s) has %d values in the checkpoint, model has %d",
				i, p.Name, len(w[i]), len(p.Value.Data))
		}
	}
	for i, p := range params {
		copy(p.Value.Data, w[i])
	}
	return nil
}

// AdamState is the optimizer's portable state: the bias-correction step
// count and the first/second moment vectors, in the caller's parameter
// order. It exists so checkpoint/restore can resume training
// bit-deterministically — a restored optimizer produces exactly the
// updates the original would have.
type AdamState struct {
	T int64
	M [][]float64
	V [][]float64
}

// State exports the optimizer state for params, in order. Parameters the
// optimizer has not stepped yet export zero moments, matching what Step
// would lazily allocate.
func (o *Adam) State(params []*Param) AdamState {
	st := AdamState{T: int64(o.t), M: make([][]float64, len(params)), V: make([][]float64, len(params))}
	for i, p := range params {
		n := len(p.Value.Data)
		st.M[i] = make([]float64, n)
		st.V[i] = make([]float64, n)
		if m := o.m[p]; m != nil {
			copy(st.M[i], m.Data)
			copy(st.V[i], o.v[p].Data)
		}
	}
	return st
}

// LoadState restores state exported by State against the same parameter
// order, replacing any moments the optimizer has accumulated. It rejects
// mismatched shapes without applying anything.
func (o *Adam) LoadState(params []*Param, st AdamState) error {
	if len(st.M) != len(params) || len(st.V) != len(params) {
		return fmt.Errorf("nn: Adam state has %d/%d moment vectors, want %d", len(st.M), len(st.V), len(params))
	}
	for i, p := range params {
		if len(st.M[i]) != len(p.Value.Data) || len(st.V[i]) != len(p.Value.Data) {
			return fmt.Errorf("nn: Adam state for param %d (%s) has %d/%d values, want %d",
				i, p.Name, len(st.M[i]), len(st.V[i]), len(p.Value.Data))
		}
	}
	o.t = int(st.T)
	o.m = make(map[*Param]*tensor.Matrix, len(params))
	o.v = make(map[*Param]*tensor.Matrix, len(params))
	for i, p := range params {
		// All-zero moment pairs are what State exports for params the
		// optimizer never stepped; leaving them unallocated reproduces the
		// pre-checkpoint optimizer exactly (a zero moment steps a zero
		// update) without re-materializing moment storage for parameters
		// the interrupted run never touched.
		if allZero(st.M[i]) && allZero(st.V[i]) {
			continue
		}
		m := tensor.New(p.Value.Rows, p.Value.Cols)
		copy(m.Data, st.M[i])
		v := tensor.New(p.Value.Rows, p.Value.Cols)
		copy(v.Data, st.V[i])
		o.m[p] = m
		o.v[p] = v
	}
	return nil
}

// allZero reports whether every value in v is zero, early-exiting on the
// first nonzero (for gradients that were actually written, that is almost
// always the first element).
func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm. It is a no-op when the norm is
// already within bounds or maxNorm <= 0.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / (norm + 1e-12)
		for _, p := range params {
			tensor.ScaleInPlace(p.Grad, scale)
		}
	}
	return norm
}

// ZeroGrads clears the gradients of all params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}
