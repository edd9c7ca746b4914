package core

import (
	"strings"
	"testing"
	"time"

	"h2onas/internal/checkpoint"
	"h2onas/internal/reward"
)

type testClock struct {
	now    time.Time
	sleeps []time.Duration
}

func (c *testClock) Now() time.Time        { return c.now }
func (c *testClock) Sleep(d time.Duration) { c.sleeps = append(c.sleeps, d) }

// ckptConfig is a deliberately tiny run — every step checkpointed into an
// in-memory filesystem — sized so the crash-at-every-step sweep stays
// fast.
func ckptConfig(fs checkpoint.FS) Config {
	cfg := fastConfig(3)
	cfg.Shards = 3
	cfg.Steps = 7
	cfg.WarmupSteps = 3
	cfg.BatchSize = 16
	cfg.CheckpointEvery = 1
	cfg.CheckpointDir = "ckpt"
	cfg.CheckpointFS = fs
	cfg.Clock = &testClock{now: time.Unix(1754400000, 0)}
	return cfg
}

func requireSameHistory(t *testing.T, golden, resumed []StepInfo) {
	t.Helper()
	if len(golden) != len(resumed) {
		t.Fatalf("history length %d, golden %d", len(resumed), len(golden))
	}
	for i := range golden {
		if golden[i] != resumed[i] {
			t.Fatalf("history[%d] = %+v, golden %+v", i, resumed[i], golden[i])
		}
	}
}

func requireSameBest(t *testing.T, golden, resumed *Result) {
	t.Helper()
	if len(golden.Best) != len(resumed.Best) {
		t.Fatalf("Best length %d, golden %d", len(resumed.Best), len(golden.Best))
	}
	for i := range golden.Best {
		if golden.Best[i] != resumed.Best[i] {
			t.Fatalf("Best[%d] = %d, golden %d (full: %v vs %v)",
				i, resumed.Best[i], golden.Best[i], resumed.Best, golden.Best)
		}
	}
}

// TestResumeFromEverySnapshotReproducesRun is the crash-at-every-step
// harness: a golden run checkpoints after every step, then for each
// snapshot a fresh searcher resumes from it and must reproduce the golden
// run's final architecture, reward history and candidate tail
// bit-for-bit. Under -short only the first, middle and last mid-run
// snapshots are swept.
func TestResumeFromEverySnapshotReproducesRun(t *testing.T) {
	fs := checkpoint.NewMemFS()
	cfg := ckptConfig(fs)
	s, _ := testSearcher(t, reward.ReLU, 1.0, 21)
	golden, err := s.Search(cfg)
	if err != nil {
		t.Fatal(err)
	}

	mgr := &checkpoint.Manager{Dir: cfg.CheckpointDir, FS: fs}
	steps, err := mgr.List()
	if err != nil {
		t.Fatal(err)
	}
	total := int64(cfg.WarmupSteps + cfg.Steps)
	if len(steps) != int(total) || steps[0] != 1 || steps[len(steps)-1] != total {
		t.Fatalf("snapshot steps %v, want 1..%d", steps, total)
	}
	consumed := (total*int64(cfg.Shards) + 16) * int64(cfg.BatchSize)
	if golden.ExamplesSeen != consumed {
		t.Fatalf("ExamplesSeen = %d, want %d consumed", golden.ExamplesSeen, consumed)
	}

	sweep := steps
	if testing.Short() {
		sweep = []int64{steps[0], steps[len(steps)/2], total - 1}
	}
	for _, k := range sweep {
		snap, err := mgr.Load("ckpt/" + checkpoint.SnapshotName(k))
		if err != nil {
			t.Fatalf("loading snapshot %d: %v", k, err)
		}
		rcfg := cfg
		rcfg.CheckpointDir = "" // resumed runs do not re-checkpoint
		rcfg.CheckpointEvery = 0
		rcfg.ResumeSnapshot = snap
		rs, _ := testSearcher(t, reward.ReLU, 1.0, 21)
		resumed, err := rs.Search(rcfg)
		if err != nil {
			t.Fatalf("resume from step %d: %v", k, err)
		}
		if resumed.ResumedFrom != k {
			t.Fatalf("ResumedFrom = %d, want %d", resumed.ResumedFrom, k)
		}
		if resumed.ExamplesSeen != consumed {
			t.Fatalf("resume from %d: ExamplesSeen = %d, want %d consumed", k, resumed.ExamplesSeen, consumed)
		}
		// The stream is fast-forwarded to the snapshot's consumed-batch
		// frontier and nothing draws past it, so even the final-quality
		// batches of a run resumed at its last step are the golden run's.
		requireSameBest(t, golden, resumed)
		requireSameHistory(t, golden.History, resumed.History)
		if golden.FinalQuality != resumed.FinalQuality {
			t.Fatalf("resume from %d: FinalQuality %v, golden %v", k, resumed.FinalQuality, golden.FinalQuality)
		}
		want := golden.Candidates[len(golden.Candidates)-len(resumed.Candidates):]
		for i := range want {
			g, r := want[i], resumed.Candidates[i]
			if g.Step != r.Step || g.Quality != r.Quality || g.Reward != r.Reward {
				t.Fatalf("resume from %d: candidate %d = %+v, golden %+v", k, i, r, g)
			}
		}
	}
}

// TestResumeLatestFromDir exercises the Resume flag end to end: the
// newest snapshot in the directory is picked up automatically.
func TestResumeLatestFromDir(t *testing.T) {
	fs := checkpoint.NewMemFS()
	cfg := ckptConfig(fs)
	s, _ := testSearcher(t, reward.ReLU, 1.0, 33)
	golden, err := s.Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Resume = true
	rcfg.CheckpointEvery = 0
	rs, _ := testSearcher(t, reward.ReLU, 1.0, 33)
	resumed, err := rs.Search(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(cfg.WarmupSteps + cfg.Steps); resumed.ResumedFrom != want {
		t.Fatalf("ResumedFrom = %d, want %d", resumed.ResumedFrom, want)
	}
	requireSameBest(t, golden, resumed)
	requireSameHistory(t, golden.History, resumed.History)
}

// TestResumeSkipsCorruptNewestSnapshot corrupts the newest snapshot; the
// run must fall back to the previous one and still reproduce the golden
// trajectory.
func TestResumeSkipsCorruptNewestSnapshot(t *testing.T) {
	fs := checkpoint.NewMemFS()
	cfg := ckptConfig(fs)
	s, _ := testSearcher(t, reward.ReLU, 1.0, 44)
	golden, err := s.Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	newest := "ckpt/" + checkpoint.SnapshotName(int64(cfg.WarmupSteps+cfg.Steps))
	data, ok := fs.ReadFile(newest)
	if !ok {
		t.Fatalf("missing %s", newest)
	}
	data[len(data)/2] ^= 0xff
	fs.WriteFile(newest, data)

	rcfg := cfg
	rcfg.Resume = true
	rcfg.CheckpointEvery = 0
	rs, _ := testSearcher(t, reward.ReLU, 1.0, 44)
	resumed, err := rs.Search(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(cfg.WarmupSteps + cfg.Steps - 1); resumed.ResumedFrom != want {
		t.Fatalf("ResumedFrom = %d, want fallback to %d", resumed.ResumedFrom, want)
	}
	requireSameBest(t, golden, resumed)
	requireSameHistory(t, golden.History, resumed.History)
}

func TestResumeWithEmptyDirStartsFresh(t *testing.T) {
	fs := checkpoint.NewMemFS()
	cfg := ckptConfig(fs)
	cfg.Resume = true
	s, _ := testSearcher(t, reward.ReLU, 1.0, 55)
	res, err := s.Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != 0 {
		t.Fatalf("ResumedFrom = %d for a fresh start", res.ResumedFrom)
	}
	if len(res.History) != cfg.Steps {
		t.Fatalf("history length %d, want %d", len(res.History), cfg.Steps)
	}
}

func TestResumeRejectsMismatchedConfig(t *testing.T) {
	fs := checkpoint.NewMemFS()
	cfg := ckptConfig(fs)
	s, _ := testSearcher(t, reward.ReLU, 1.0, 66)
	if _, err := s.Search(cfg); err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Resume = true
	rcfg.Shards = cfg.Shards + 1 // different fan-out → different trajectory
	rs, _ := testSearcher(t, reward.ReLU, 1.0, 66)
	_, err := rs.Search(rcfg)
	if err == nil {
		t.Fatal("resume across a config change accepted")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("error %q does not mention the fingerprint mismatch", err)
	}
}

func TestResumeRequiresCheckpointDir(t *testing.T) {
	cfg := fastConfig(1)
	cfg.Steps, cfg.WarmupSteps = 2, 1
	cfg.Resume = true
	s, _ := testSearcher(t, reward.ReLU, 1.0, 1)
	if _, err := s.Search(cfg); err == nil {
		t.Fatal("Resume without CheckpointDir accepted")
	}
}
