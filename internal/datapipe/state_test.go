package datapipe

import (
	"reflect"
	"testing"
)

func testCfg() CTRConfig {
	return CTRConfig{NumTables: 3, Vocab: 64, NumDense: 4}
}

func batchesEqual(a, b *Batch) bool {
	return reflect.DeepEqual(a.Dense.Data, b.Dense.Data) &&
		reflect.DeepEqual(a.Sparse, b.Sparse) &&
		reflect.DeepEqual(a.Labels.Data, b.Labels.Data)
}

// TestStreamSkipMatchesNextBatch is the contract checkpoint resume rests
// on: fast-forwarding a fresh stream with Skip lands it in exactly the
// state that actually generating the batches would have.
func TestStreamSkipMatchesNextBatch(t *testing.T) {
	for _, k := range []int64{0, 1, 7, 23} {
		walked := NewStream(testCfg(), 11)
		for i := int64(0); i < k; i++ {
			walked.NextBatch(16)
		}
		skipped := NewStream(testCfg(), 11)
		skipped.Skip(k, 16)
		if walked.State() != skipped.State() {
			t.Fatalf("after %d batches: walked state %+v, skipped state %+v", k, walked.State(), skipped.State())
		}
		if !batchesEqual(walked.NextBatch(16), skipped.NextBatch(16)) {
			t.Fatalf("batch %d differs between walked and skipped streams", k)
		}
	}
}

func TestStreamStateRestoreRoundTrip(t *testing.T) {
	s := NewStream(testCfg(), 5)
	for i := 0; i < 4; i++ {
		s.NextBatch(8)
	}
	st := s.State()
	want := s.NextBatch(8)

	fresh := NewStream(testCfg(), 5)
	fresh.Restore(st)
	if fresh.ExamplesServed() != st.Served {
		t.Fatalf("ExamplesServed = %d, want %d", fresh.ExamplesServed(), st.Served)
	}
	if got := fresh.NextBatch(8); !batchesEqual(got, want) {
		t.Fatal("restored stream produced a different batch")
	}
}

func TestStreamSkipValidatesArguments(t *testing.T) {
	for _, call := range []func(*Stream){
		func(s *Stream) { s.Skip(-1, 8) },
		func(s *Stream) { s.Skip(1, 0) },
		func(s *Stream) { s.Skip(1, -8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid Skip arguments did not panic")
				}
			}()
			call(NewStream(testCfg(), 1))
		}()
	}
}

func seqBatchesEqual(a, b *SeqBatch) bool {
	return reflect.DeepEqual(a.Tokens, b.Tokens) && reflect.DeepEqual(a.Labels.Data, b.Labels.Data)
}

// TestSeqStreamSkipMatchesNextBatch is the sequence-stream half of the
// resume contract: Skip lands a fresh stream exactly where generating the
// batches would have.
func TestSeqStreamSkipMatchesNextBatch(t *testing.T) {
	for _, k := range []int64{0, 1, 7, 23} {
		walked := NewSeqStream(DefaultSeqConfig(), 11)
		for i := int64(0); i < k; i++ {
			walked.NextBatch(16)
		}
		skipped := NewSeqStream(DefaultSeqConfig(), 11)
		skipped.Skip(k, 16)
		if walked.ExamplesServed() != skipped.ExamplesServed() {
			t.Fatalf("after %d batches: walked served %d, skipped served %d", k, walked.ExamplesServed(), skipped.ExamplesServed())
		}
		if !seqBatchesEqual(walked.NextBatch(16), skipped.NextBatch(16)) {
			t.Fatalf("batch %d differs between walked and skipped streams", k)
		}
	}
}

func TestSeqStreamSkipValidatesArguments(t *testing.T) {
	for _, call := range []func(*SeqStream){
		func(s *SeqStream) { s.Skip(-1, 8) },
		func(s *SeqStream) { s.Skip(1, 0) },
		func(s *SeqStream) { s.Skip(1, -8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid Skip arguments did not panic")
				}
			}()
			call(NewSeqStream(DefaultSeqConfig(), 1))
		}()
	}
}
