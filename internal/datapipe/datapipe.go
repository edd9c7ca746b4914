// Package datapipe implements H₂O-NAS's pure in-memory data pipeline
// (Section 3 ①, Section 4.1). Production traffic cannot be persisted to
// non-volatile media or examined by humans, so the pipeline streams
// synthetic click-through examples straight from a generator into the
// search's in-memory prefetch buffer, hands every example out exactly
// once, and enforces the ordering invariant that makes the unified
// single-step search sound: each batch must be used for learning
// architecture choices α *before* it is used for training shared weights W.
//
// The synthetic CTR task substitutes for live production traffic (see
// DESIGN.md): sparse categorical features carry memorization signal whose
// recoverability depends on embedding width and vocabulary size, dense
// features carry non-linear generalization signal whose recoverability
// depends on MLP capacity — so the search optimizes a real
// quality/architecture dependence.
package datapipe

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"h2onas/internal/tensor"
)

// CTRConfig parameterizes the synthetic click-through generator.
type CTRConfig struct {
	NumTables int // sparse features
	Vocab     int // ids per sparse feature
	NumDense  int // dense features
	BagSize   int // ids per example per feature

	// SignalDecay controls how informative successive tables are: table t
	// has latent-effect scale SignalScale·SignalDecay^t, so early tables
	// matter and late tables are mostly noise (the structure that lets
	// the search shrink or drop uninformative tables). 0 means 0.75.
	SignalDecay float64
	// SignalScale is the latent-effect magnitude of table 0. 0 means 1.2.
	SignalScale float64
	// DenseScale is the magnitude of the dense nonlinear signal. 0 means 1.
	DenseScale float64
	// NoiseStd is label noise on the logit. 0 means 0.25.
	NoiseStd float64

	// DriftPeriod makes the traffic non-stationary: every DriftPeriod
	// examples, the latent per-id effects rotate toward a fresh table
	// (linear interpolation within the period). 0 disables drift. This
	// models the evolving production distributions that motivate
	// searching on real-time traffic instead of frozen datasets
	// (Section 3, "Design for Deployment").
	DriftPeriod int64
}

// DefaultCTRConfig matches the small DLRM search configuration used by
// tests and examples.
func DefaultCTRConfig() CTRConfig {
	return CTRConfig{NumTables: 8, Vocab: 500, NumDense: 8, BagSize: 1}
}

func (c CTRConfig) withDefaults() CTRConfig {
	if c.SignalDecay == 0 {
		c.SignalDecay = 0.75
	}
	if c.SignalScale == 0 {
		c.SignalScale = 1.2
	}
	if c.DenseScale == 0 {
		c.DenseScale = 1
	}
	if c.NoiseStd == 0 {
		c.NoiseStd = 0.25
	}
	if c.BagSize == 0 {
		c.BagSize = 1
	}
	return c
}

// Batch is one batch of training examples. Phase tracking enforces the
// α-before-W invariant: UseForArch must be called before UseForWeights.
type Batch struct {
	Dense  *tensor.Matrix // batch×NumDense
	Sparse [][][]int      // [table][example][bag ids]
	Labels *tensor.Matrix // batch×1, {0,1}

	phase int32 // 0 fresh, 1 arch-learned, 2 weights-trained
}

// Size returns the number of examples.
func (b *Batch) Size() int { return b.Dense.Rows }

// UseForArch marks the batch as consumed by architecture learning
// (reward evaluation). It panics if weights were already trained on it —
// that would be the information leak the pipeline exists to prevent.
func (b *Batch) UseForArch() {
	for {
		p := atomic.LoadInt32(&b.phase)
		if p >= 2 {
			panic("datapipe: batch used for architecture learning after weight training (α must precede W)")
		}
		if atomic.CompareAndSwapInt32(&b.phase, p, 1) {
			return
		}
	}
}

// UseForWeights marks the batch as consumed by weight training. It panics
// unless UseForArch happened first, enforcing the single-step ordering.
func (b *Batch) UseForWeights() {
	if !atomic.CompareAndSwapInt32(&b.phase, 1, 2) {
		panic("datapipe: batch must be used for architecture learning before weight training")
	}
}

// Phase returns 0 (fresh), 1 (arch-learned) or 2 (weights-trained).
func (b *Batch) Phase() int { return int(atomic.LoadInt32(&b.phase)) }

// Stream generates an endless, never-repeating sequence of synthetic CTR
// examples. Latent per-id effects are hash-derived, so the generator needs
// O(1) memory regardless of vocabulary size and two streams with the same
// seed produce identical populations.
type Stream struct {
	cfg  CTRConfig
	seed uint64

	mu      sync.Mutex
	rng     *tensor.RNG
	served  int64
	batches int64
}

// NewStream returns a stream with the given seed.
func NewStream(cfg CTRConfig, seed uint64) *Stream {
	cfg = cfg.withDefaults()
	if cfg.NumTables <= 0 || cfg.Vocab <= 0 || cfg.NumDense < 0 {
		panic(fmt.Sprintf("datapipe: invalid config %+v", cfg))
	}
	return &Stream{cfg: cfg, seed: seed, rng: tensor.NewRNG(seed)}
}

// Config returns the stream's generator configuration.
func (s *Stream) Config() CTRConfig { return s.cfg }

// ExamplesServed returns how many examples have been generated.
func (s *Stream) ExamplesServed() int64 { return atomic.LoadInt64(&s.served) }

// NextBatch generates n fresh examples. Every call produces new examples;
// nothing is ever replayed (the use-once property of production traffic).
func (s *Stream) NextBatch(n int) *Batch {
	if n <= 0 {
		panic("datapipe: NextBatch with non-positive size")
	}
	s.mu.Lock()
	rng := s.rng.Split()
	s.mu.Unlock()

	cfg := s.cfg
	b := &Batch{
		Dense:  tensor.New(n, cfg.NumDense),
		Labels: tensor.New(n, 1),
		Sparse: make([][][]int, cfg.NumTables),
	}
	for t := range b.Sparse {
		b.Sparse[t] = make([][]int, n)
	}
	startIndex := atomic.LoadInt64(&s.served)
	for i := 0; i < n; i++ {
		logit := 0.0
		drow := b.Dense.Row(i)
		for j := range drow {
			drow[j] = rng.Norm()
		}
		logit += s.denseSignal(drow)
		for t := 0; t < cfg.NumTables; t++ {
			bag := make([]int, cfg.BagSize)
			var eff float64
			for k := range bag {
				id := rng.Intn(cfg.Vocab)
				bag[k] = id
				eff += s.effectAt(t, id, startIndex+int64(i))
			}
			b.Sparse[t][i] = bag
			logit += eff / float64(cfg.BagSize)
		}
		logit += rng.Norm() * cfg.NoiseStd
		if rng.Float64() < sigmoid(logit) {
			b.Labels.Data[i] = 1
		}
	}
	atomic.AddInt64(&s.served, int64(n))
	atomic.AddInt64(&s.batches, 1)
	return b
}

// StreamState is the portable generator state of a Stream: restoring it
// (or fast-forwarding a fresh stream with Skip) repositions the generator
// so the sequence of future batches is exactly what the original stream
// would have produced.
type StreamState struct {
	RNG     uint64 `json:"rng"`
	Served  int64  `json:"served"`
	Batches int64  `json:"batches"`
}

// State captures the stream's current generator state.
func (s *Stream) State() StreamState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StreamState{
		RNG:     s.rng.State(),
		Served:  atomic.LoadInt64(&s.served),
		Batches: atomic.LoadInt64(&s.batches),
	}
}

// Restore overwrites the stream's generator state with one captured by
// State on a stream with the same config and seed.
func (s *Stream) Restore(st StreamState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rng.SetState(st.RNG)
	atomic.StoreInt64(&s.served, st.Served)
	atomic.StoreInt64(&s.batches, st.Batches)
}

// Skip advances the stream past nBatches batches of batchSize examples
// each without generating them. It has exactly the effect on the
// generator state that nBatches NextBatch(batchSize) calls would have, at
// O(1) cost per batch — the fast-forward primitive checkpoint resume uses
// to reposition a fresh stream at a run's consumed-batch frontier.
func (s *Stream) Skip(nBatches int64, batchSize int) {
	if nBatches < 0 || batchSize <= 0 {
		panic(fmt.Sprintf("datapipe: Skip(%d, %d) with negative batches or non-positive size", nBatches, batchSize))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// NextBatch consumes exactly one value from the parent generator (the
	// Split that seeds the per-batch stream); everything else it draws
	// comes from the discarded child.
	for i := int64(0); i < nBatches; i++ {
		s.rng.Uint64()
	}
	atomic.AddInt64(&s.served, nBatches*int64(batchSize))
	atomic.AddInt64(&s.batches, nBatches)
}

// latentEffect is the stationary ground-truth per-id effect of table t: a
// hash-derived Gaussian scaled by the table's informativeness.
func (s *Stream) latentEffect(table, id int) float64 {
	return s.epochEffect(table, id, 0)
}

// epochEffect is the latent effect during drift epoch e.
func (s *Stream) epochEffect(table, id int, epoch int64) float64 {
	scale := s.cfg.SignalScale * math.Pow(s.cfg.SignalDecay, float64(table))
	h := hash3(s.seed+uint64(epoch)*0x51_7c_c1_b7_27_22_0a95, uint64(table)+1, uint64(id)+1)
	return gaussFromHash(h) * scale
}

// effectAt is the (possibly drifting) effect at a global example index.
func (s *Stream) effectAt(table, id int, exampleIndex int64) float64 {
	if s.cfg.DriftPeriod <= 0 {
		return s.epochEffect(table, id, 0)
	}
	epoch := exampleIndex / s.cfg.DriftPeriod
	frac := float64(exampleIndex%s.cfg.DriftPeriod) / float64(s.cfg.DriftPeriod)
	return (1-frac)*s.epochEffect(table, id, epoch) + frac*s.epochEffect(table, id, epoch+1)
}

// denseSignal is the ground-truth non-linear dense contribution: linear
// terms, a couple of pairwise interactions, and a sinusoidal term, all
// hash-seeded so MLP capacity determines how much of it a model recovers.
func (s *Stream) denseSignal(x []float64) float64 {
	var v float64
	for j, xj := range x {
		w := gaussFromHash(hash3(s.seed, 0x10, uint64(j))) * 0.4
		v += w * xj
	}
	for j := 0; j+1 < len(x); j += 2 {
		w := gaussFromHash(hash3(s.seed, 0x20, uint64(j))) * 0.5
		v += w * x[j] * x[j+1]
	}
	if len(x) > 0 {
		v += 0.6 * math.Sin(2*x[0]+x[len(x)-1])
	}
	return v * s.cfg.DenseScale
}

// LatentEffect exposes the ground truth for tests and oracle baselines.
func (s *Stream) LatentEffect(table, id int) float64 { return s.latentEffect(table, id) }

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

func hash3(a, b, c uint64) uint64 {
	h := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// gaussFromHash maps a hash to a deterministic standard-normal value.
func gaussFromHash(h uint64) float64 {
	u1 := float64(h>>11)/(1<<53) + 1e-12
	u2 := float64((h*0x9e3779b97f4a7c15)>>11) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
