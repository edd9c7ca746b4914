package datapipe

import (
	"math"
	"testing"

	"h2onas/internal/tensor"
)

func TestStreamBatchShapes(t *testing.T) {
	s := NewStream(DefaultCTRConfig(), 1)
	b := s.NextBatch(32)
	if b.Size() != 32 {
		t.Fatalf("Size = %d", b.Size())
	}
	if b.Dense.Rows != 32 || b.Dense.Cols != 8 {
		t.Fatalf("Dense shape %dx%d", b.Dense.Rows, b.Dense.Cols)
	}
	if len(b.Sparse) != 8 {
		t.Fatalf("Sparse tables = %d", len(b.Sparse))
	}
	for tbl := range b.Sparse {
		if len(b.Sparse[tbl]) != 32 {
			t.Fatalf("table %d has %d rows", tbl, len(b.Sparse[tbl]))
		}
		for _, bag := range b.Sparse[tbl] {
			for _, id := range bag {
				if id < 0 || id >= 500 {
					t.Fatalf("id %d out of vocab", id)
				}
			}
		}
	}
	for _, y := range b.Labels.Data {
		if y != 0 && y != 1 {
			t.Fatalf("label %v not binary", y)
		}
	}
}

func TestStreamLabelsBalancedEnough(t *testing.T) {
	s := NewStream(DefaultCTRConfig(), 2)
	b := s.NextBatch(4000)
	var pos float64
	for _, y := range b.Labels.Data {
		pos += y
	}
	frac := pos / 4000
	if frac < 0.2 || frac > 0.8 {
		t.Fatalf("positive fraction %v too skewed for learning", frac)
	}
}

func TestStreamNeverRepeats(t *testing.T) {
	s := NewStream(DefaultCTRConfig(), 3)
	a := s.NextBatch(16)
	b := s.NextBatch(16)
	if tensor.Equal(a.Dense, b.Dense, 1e-15) {
		t.Fatal("consecutive batches must differ (use-once traffic)")
	}
	if s.ExamplesServed() != 32 {
		t.Fatalf("ExamplesServed = %d", s.ExamplesServed())
	}
}

func TestStreamDeterministicAcrossInstances(t *testing.T) {
	a := NewStream(DefaultCTRConfig(), 7).NextBatch(8)
	b := NewStream(DefaultCTRConfig(), 7).NextBatch(8)
	if !tensor.Equal(a.Dense, b.Dense, 0) || !tensor.Equal(a.Labels, b.Labels, 0) {
		t.Fatal("same seed must reproduce the same traffic")
	}
}

func TestLatentEffectDecaysAcrossTables(t *testing.T) {
	s := NewStream(DefaultCTRConfig(), 4)
	meanAbs := func(table int) float64 {
		var sum float64
		for id := 0; id < 400; id++ {
			sum += math.Abs(s.LatentEffect(table, id))
		}
		return sum / 400
	}
	if meanAbs(0) <= meanAbs(7) {
		t.Fatalf("table 0 effect (%v) must exceed table 7 (%v): informativeness must decay",
			meanAbs(0), meanAbs(7))
	}
}

func TestLatentEffectDeterministicPerID(t *testing.T) {
	s := NewStream(DefaultCTRConfig(), 5)
	if s.LatentEffect(2, 42) != s.LatentEffect(2, 42) {
		t.Fatal("latent effect must be a pure function of (table, id)")
	}
	if s.LatentEffect(2, 42) == s.LatentEffect(2, 43) {
		t.Fatal("different ids should have different effects")
	}
}

func TestLabelsCorrelateWithGroundTruth(t *testing.T) {
	// Labels must actually follow the latent structure: examples whose
	// table-0 id has a strongly positive effect should click more often.
	cfg := DefaultCTRConfig()
	s := NewStream(cfg, 6)
	b := s.NextBatch(8000)
	var hiSum, hiN, loSum, loN float64
	for i := 0; i < b.Size(); i++ {
		eff := s.LatentEffect(0, b.Sparse[0][i][0])
		if eff > 0.8 {
			hiSum += b.Labels.Data[i]
			hiN++
		} else if eff < -0.8 {
			loSum += b.Labels.Data[i]
			loN++
		}
	}
	if hiN < 50 || loN < 50 {
		t.Skip("not enough extreme-effect examples in sample")
	}
	if hiSum/hiN <= loSum/loN+0.1 {
		t.Fatalf("high-effect CTR %v must exceed low-effect CTR %v", hiSum/hiN, loSum/loN)
	}
}

func TestBatchPhaseOrdering(t *testing.T) {
	s := NewStream(DefaultCTRConfig(), 8)
	b := s.NextBatch(4)
	if b.Phase() != 0 {
		t.Fatal("fresh batch must be phase 0")
	}
	b.UseForArch()
	if b.Phase() != 1 {
		t.Fatal("after arch use phase must be 1")
	}
	b.UseForWeights()
	if b.Phase() != 2 {
		t.Fatal("after weight use phase must be 2")
	}
}

func TestWeightsBeforeArchPanics(t *testing.T) {
	s := NewStream(DefaultCTRConfig(), 9)
	b := s.NextBatch(4)
	defer func() {
		if recover() == nil {
			t.Fatal("training weights on a fresh batch must panic")
		}
	}()
	b.UseForWeights()
}

func TestArchAfterWeightsPanics(t *testing.T) {
	s := NewStream(DefaultCTRConfig(), 10)
	b := s.NextBatch(4)
	b.UseForArch()
	b.UseForWeights()
	defer func() {
		if recover() == nil {
			t.Fatal("arch learning after weight training must panic (information leak)")
		}
	}()
	b.UseForArch()
}

func TestDriftRotatesLatentEffects(t *testing.T) {
	cfg := DefaultCTRConfig()
	cfg.DriftPeriod = 1000
	s := NewStream(cfg, 42)
	// Same id, far-apart example indices: effects must differ under drift.
	early := s.effectAt(0, 7, 0)
	late := s.effectAt(0, 7, 5000)
	if early == late {
		t.Fatal("drift must rotate latent effects across epochs")
	}
	// Within an epoch the effect interpolates smoothly: adjacent indices
	// are close.
	a := s.effectAt(0, 7, 100)
	b := s.effectAt(0, 7, 101)
	if math.Abs(a-b) > 0.05 {
		t.Fatalf("drift must be smooth within a period: %v vs %v", a, b)
	}
}

func TestNoDriftIsStationary(t *testing.T) {
	s := NewStream(DefaultCTRConfig(), 42)
	if s.effectAt(0, 7, 0) != s.effectAt(0, 7, 1_000_000) {
		t.Fatal("without drift, effects must be stationary")
	}
	if s.effectAt(0, 7, 0) != s.LatentEffect(0, 7) {
		t.Fatal("stationary effect must match the exposed ground truth")
	}
}

func TestDriftPreservesDeterminism(t *testing.T) {
	cfg := DefaultCTRConfig()
	cfg.DriftPeriod = 500
	a := NewStream(cfg, 9).NextBatch(32)
	b := NewStream(cfg, 9).NextBatch(32)
	if !tensor.Equal(a.Labels, b.Labels, 0) {
		t.Fatal("drifting streams with the same seed must reproduce identically")
	}
}

func TestNewStreamValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero tables")
		}
	}()
	NewStream(CTRConfig{NumTables: 0, Vocab: 10}, 1)
}
