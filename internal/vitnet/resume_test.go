package vitnet

import (
	"errors"
	"sync"
	"testing"

	"h2onas/internal/checkpoint"
	"h2onas/internal/core"
	"h2onas/internal/metrics"
)

// TestResumeFromEverySnapshotReproducesGolden is the crash-at-every-step
// sweep on tfm-small: the pinned golden run checkpoints after every step,
// and a fresh searcher resumed from each snapshot must reproduce the
// committed golden trace byte for byte, with the exact consumed-example
// count of the uninterrupted run. Under -short only the first, middle and
// last two snapshots are swept.
func TestResumeFromEverySnapshotReproducesGolden(t *testing.T) {
	fs := checkpoint.NewMemFS()
	cfg := goldenConfig()
	cfg.CheckpointDir = "ckpt"
	cfg.CheckpointFS = fs
	cfg.CheckpointEvery = 1
	golden, err := goldenSearcher().Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireGolden(t, "checkpointing run", golden)
	total := int64(cfg.WarmupSteps + cfg.Steps)
	// Every step batch plus one final batch of 16·BatchSize sequences.
	consumed := (total*int64(cfg.Shards) + 16) * int64(cfg.BatchSize)
	if golden.ExamplesSeen != consumed {
		t.Fatalf("ExamplesSeen = %d, want %d consumed", golden.ExamplesSeen, consumed)
	}

	mgr := &checkpoint.Manager{Dir: cfg.CheckpointDir, FS: fs}
	steps, err := mgr.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != int(total) || steps[0] != 1 || steps[len(steps)-1] != total {
		t.Fatalf("snapshot steps %v, want 1..%d", steps, total)
	}
	sweep := steps
	if testing.Short() {
		sweep = []int64{steps[0], steps[len(steps)/2], total - 1, total}
	}
	for _, k := range sweep {
		snap, err := mgr.Load("ckpt/" + checkpoint.SnapshotName(k))
		if err != nil {
			t.Fatalf("loading snapshot %d: %v", k, err)
		}
		rcfg := goldenConfig()
		rcfg.ResumeSnapshot = snap
		resumed, err := goldenSearcher().Search(rcfg)
		if err != nil {
			t.Fatalf("resume from step %d: %v", k, err)
		}
		if resumed.ResumedFrom != k {
			t.Fatalf("ResumedFrom = %d, want %d", resumed.ResumedFrom, k)
		}
		if resumed.ExamplesSeen != consumed {
			t.Fatalf("resume from %d: ExamplesSeen = %d, want %d", k, resumed.ExamplesSeen, consumed)
		}
		requireGolden(t, "run resumed from step "+checkpoint.SnapshotName(k), resumed)
	}
}

// TestStopThenResumeReproducesGolden pauses the pinned run via
// Config.Stop, which flushes a snapshot, and resumes it from the
// checkpoint directory: the finished run is the committed golden trace.
func TestStopThenResumeReproducesGolden(t *testing.T) {
	fs := checkpoint.NewMemFS()
	cfg := goldenConfig()
	cfg.CheckpointDir = "ckpt"
	cfg.CheckpointFS = fs
	cfg.CheckpointEvery = 1000 // only the stop flushes a snapshot
	stop := make(chan struct{})
	var once sync.Once
	cfg.Stop = stop
	cfg.Progress = func(info core.StepInfo) {
		if info.Step >= 4 {
			once.Do(func() { close(stop) })
		}
	}
	partial, err := goldenSearcher().Search(cfg)
	if !errors.Is(err, core.ErrStopped) {
		t.Fatalf("stopped search returned %v, want ErrStopped", err)
	}
	if n := len(partial.History); n != 5 {
		t.Fatalf("partial history has %d steps, want 5", n)
	}

	rcfg := goldenConfig()
	rcfg.CheckpointDir = cfg.CheckpointDir
	rcfg.CheckpointFS = fs
	rcfg.Resume = true
	resumed, err := goldenSearcher().Search(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(cfg.WarmupSteps + 5); resumed.ResumedFrom != want {
		t.Fatalf("ResumedFrom = %d, want %d", resumed.ResumedFrom, want)
	}
	requireGolden(t, "stopped and resumed run", resumed)
}

// TestResumeRefusesMismatchedSnapshot: the checkpoint fingerprint covers
// the transformer search too, so a snapshot does not resume a run of a
// different configuration.
func TestResumeRefusesMismatchedSnapshot(t *testing.T) {
	fs := checkpoint.NewMemFS()
	cfg := goldenConfig()
	cfg.Steps = 1
	cfg.CheckpointDir = "ckpt"
	cfg.CheckpointFS = fs
	cfg.CheckpointEvery = 1
	if _, err := goldenSearcher().Search(cfg); err != nil {
		t.Fatal(err)
	}
	rcfg := goldenConfig()
	rcfg.BatchSize++
	rcfg.CheckpointDir = "ckpt"
	rcfg.CheckpointFS = fs
	rcfg.Resume = true
	if _, err := goldenSearcher().Search(rcfg); err == nil {
		t.Fatal("a snapshot of a different batch size was resumed")
	}
}

// TestSearchRejectsDLRMOnlyConfig: the transformer front end refuses the
// Config fields only the DLRM super-network can honour instead of
// silently ignoring them.
func TestSearchRejectsDLRMOnlyConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*core.Config)
	}{
		{"transport", func(c *core.Config) { c.Transport = stubTransport{} }},
		{"float32 activations", func(c *core.Config) { c.Float32Activations = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goldenConfig()
			tc.set(&cfg)
			s := goldenSearcher()
			if _, err := s.Search(cfg); err == nil {
				t.Fatalf("Search accepted %s", tc.name)
			}
			if n := s.Stream.ExamplesServed(); n != 0 {
				t.Fatalf("rejected search drew %d examples", n)
			}
		})
	}
}

// stubTransport is a non-nil core.ShardTransport; the rejection fires
// before any of its methods could run.
type stubTransport struct{ core.ShardTransport }

// TestSearchRecordsPrefetchMetrics: the transformer search reports the
// same batch-prefetch instruments as the DLRM one.
func TestSearchRecordsPrefetchMetrics(t *testing.T) {
	reg := metrics.New()
	cfg := goldenConfig()
	cfg.Metrics = reg
	if _, err := goldenSearcher().Search(cfg); err != nil {
		t.Fatal(err)
	}
	total := int64(cfg.WarmupSteps + cfg.Steps)
	batches := total*int64(cfg.Shards) + 1
	if got := reg.Histogram("datapipe_produce_seconds").Count(); got != batches {
		t.Errorf("datapipe_produce_seconds count = %d, want %d", got, batches)
	}
	if got := reg.Counter("datapipe_batches_consumed_total").Value(); got != batches {
		t.Errorf("datapipe_batches_consumed_total = %d, want %d", got, batches)
	}
	if got := reg.Histogram("datapipe_next_wait_seconds").Count(); got != total {
		t.Errorf("datapipe_next_wait_seconds count = %d, want %d", got, total)
	}
}
