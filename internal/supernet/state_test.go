package supernet

import (
	"testing"

	"h2onas/internal/nn"
	"h2onas/internal/tensor"
)

func TestWeightsStateLoadWeightsRoundTrip(t *testing.T) {
	_, sn, _ := newSmall(t, 1)
	saved := nn.WeightsState(sn.Params())

	// Scribble over every parameter, then restore.
	for _, p := range sn.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] = -7
		}
	}
	if err := nn.LoadWeights(sn.Params(), saved); err != nil {
		t.Fatal(err)
	}
	for i, p := range sn.Params() {
		for j := range p.Value.Data {
			if p.Value.Data[j] != saved[i][j] {
				t.Fatalf("param %d value %d not restored", i, j)
			}
		}
	}
}

// TestLoadWeightsPropagatesToReplicas pins the property resume depends
// on: replicas share parameter storage with the master, so restoring the
// master restores every replica in place.
func TestLoadWeightsPropagatesToReplicas(t *testing.T) {
	_, sn, _ := newSmall(t, 2)
	rng := tensor.NewRNG(3)
	replica := sn.Replicate(rng)
	saved := nn.WeightsState(sn.Params())
	for i := range saved {
		for j := range saved[i] {
			saved[i][j] = float64(i) + float64(j)/1000
		}
	}
	if err := nn.LoadWeights(sn.Params(), saved); err != nil {
		t.Fatal(err)
	}
	for i, p := range replica.Params() {
		for j := range p.Value.Data {
			if p.Value.Data[j] != saved[i][j] {
				t.Fatalf("replica param %d value %d did not see restored weights", i, j)
			}
		}
	}
}

func TestLoadWeightsRejectsShapeMismatchAtomically(t *testing.T) {
	_, sn, _ := newSmall(t, 4)
	before := nn.WeightsState(sn.Params())

	if err := nn.LoadWeights(sn.Params(), before[:len(before)-1]); err == nil {
		t.Fatal("wrong parameter count accepted")
	}
	bad := nn.WeightsState(sn.Params())
	bad[len(bad)-1] = append(bad[len(bad)-1], 0) // one extra value in the last tensor
	if err := nn.LoadWeights(sn.Params(), bad); err == nil {
		t.Fatal("wrong parameter length accepted")
	}
	// Rejected loads must leave the network untouched — even when only a
	// late parameter mismatches.
	after := nn.WeightsState(sn.Params())
	for i := range before {
		for j := range before[i] {
			if before[i][j] != after[i][j] {
				t.Fatalf("param %d changed by a rejected load", i)
			}
		}
	}
}
