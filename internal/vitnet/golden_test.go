package vitnet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
	"h2onas/internal/reward"
	"h2onas/internal/space"
)

// updateGolden rewrites the committed golden trajectory instead of
// asserting against it, with the same convention as internal/core:
//
//	go test ./internal/vitnet -run TestGoldenTrajectory -update-golden
//
// A changed golden means the search walked a different path; review the
// diff and justify it before committing.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden trajectories")

// goldenConfigNote describes the pinned run; it is stored in the golden
// file so a stale trace is self-describing.
const goldenConfigNote = "tfm-small shards=3 steps=10 warmup=3 batch=6 seed=31 stream=DefaultSeqConfig/31"

// goldenStep and goldenTrace mirror internal/core's golden format: the
// _bits fields are %016x of math.Float64bits, so the assertion is bit
// identity; MeanReward and FinalQuality repeat as plain floats for
// human diffing only.
type goldenStep struct {
	Step           int     `json:"step"`
	MeanRewardBits string  `json:"mean_reward_bits"`
	MeanQBits      string  `json:"mean_q_bits"`
	EntropyBits    string  `json:"entropy_bits"`
	ConfidenceBits string  `json:"confidence_bits"`
	MeanReward     float64 `json:"mean_reward"`
}

type goldenTrace struct {
	Strategy         string       `json:"strategy"`
	Config           string       `json:"config"`
	Best             []int        `json:"best"`
	FinalQualityBits string       `json:"final_quality_bits"`
	FinalQuality     float64      `json:"final_quality"`
	Steps            []goldenStep `json:"steps"`
}

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// goldenSearcher and goldenConfig build the pinned run described by
// goldenConfigNote, on a fresh stream.
func goldenSearcher() *Searcher {
	vs := space.NewTransformerSpace(space.SmallViTConfig())
	chip := hwsim.TPUv4()
	perf := func(a space.Assignment) []float64 {
		r := hwsim.Simulate(vs.Graph(vs.Decode(a)), chip, hwsim.Options{Mode: hwsim.Training, Chips: 8})
		return []float64{r.StepTime}
	}
	base := perf(vs.BaselineAssignment())
	return &Searcher{
		VS:     vs,
		Reward: reward.MustNew(reward.ReLU, reward.Objective{Name: "train_step_time", Target: base[0], Beta: -2}),
		Perf:   perf,
		Stream: datapipe.NewSeqStream(datapipe.DefaultSeqConfig(), 31),
	}
}

func goldenConfig() core.Config {
	return core.Config{Shards: 3, Steps: 10, BatchSize: 6, WarmupSteps: 3, Seed: 31}
}

// goldenJSON serializes a result in the committed golden format.
func goldenJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	tr := goldenTrace{
		Strategy:         "reinforce",
		Config:           goldenConfigNote,
		Best:             res.Best,
		FinalQualityBits: bits(res.FinalQuality),
		FinalQuality:     res.FinalQuality,
	}
	for _, h := range res.History {
		tr.Steps = append(tr.Steps, goldenStep{
			Step:           h.Step,
			MeanRewardBits: bits(h.MeanReward),
			MeanQBits:      bits(h.MeanQ),
			EntropyBits:    bits(h.Entropy),
			ConfidenceBits: bits(h.Confidence),
			MeanReward:     h.MeanReward,
		})
	}
	got, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(got, '\n')
}

var goldenPath = filepath.Join("testdata", "golden", "reinforce.json")

// requireGolden fails unless res serializes byte-identically to the
// committed golden trace.
func requireGolden(t *testing.T, what string, res *Result) {
	t.Helper()
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden trace (run with -update-golden to create): %v", err)
	}
	if got := goldenJSON(t, res); !bytes.Equal(got, want) {
		t.Fatalf("%s diverged from %s\n got: %s\nwant: %s\nThe search walked a different path on the pinned seed. If the change is intentional, regenerate with -update-golden and justify the new trajectory in review.", what, goldenPath, got, want)
	}
}

// TestGoldenTrajectory replays the transformer search (REINFORCE, the
// default strategy) on a pinned seed and asserts its full
// reward/quality/entropy/confidence trajectory, selected architecture and
// final quality are byte-identical to the committed trace. Every step
// runs MaskedDense, attention and the dense spine update, so a moved
// rounding anywhere in them fails here on the first divergent bit.
func TestGoldenTrajectory(t *testing.T) {
	res, err := goldenSearcher().Search(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, goldenJSON(t, res), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	requireGolden(t, "trajectory", res)
}
