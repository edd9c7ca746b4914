package vitnet

import (
	"fmt"

	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// Searcher runs the unified single-step parallel search over the pure
// transformer space with a live super-network, on sequence traffic. It is
// a front end over core.Engine, the same step loop core.Searcher runs, so
// checkpoint/resume, Stop, the shard-fault seam and batch prefetch behave
// exactly as they do for DLRM.
type Searcher struct {
	VS     *space.ViTSpace
	Reward *reward.Function
	Perf   core.PerfFunc
	Stream *datapipe.SeqStream
}

// Result is the outcome of a transformer search.
type Result struct {
	core.Outcome
	// BestArch is Best decoded.
	BestArch space.ViTArch
}

// Search runs the search. Config.Transport and Config.Float32Activations
// are DLRM-only (remote workers build DLRM super-networks, and the
// float32 activation mode lives in the DLRM layers), so setting either is
// an error rather than silently ignored.
func (s *Searcher) Search(cfg core.Config) (*Result, error) {
	if s.VS == nil || s.Reward == nil || s.Perf == nil || s.Stream == nil {
		return nil, fmt.Errorf("vitnet: Searcher requires VS, Reward, Perf and Stream")
	}
	if cfg.Transport != nil {
		return nil, fmt.Errorf("vitnet: Config.Transport is not supported (remote shard workers build DLRM super-networks only)")
	}
	if cfg.Float32Activations {
		return nil, fmt.Errorf("vitnet: Config.Float32Activations is not supported by the transformer super-network")
	}
	seqCfg := s.Stream.Config()
	e := &core.Engine[*Supernet, *datapipe.SeqBatch]{
		Name:   "vitnet.Search/v1",
		Space:  s.VS.Space,
		Reward: s.Reward,
		Perf:   s.Perf,
		Stream: s.Stream,
		Build: func(rng *tensor.RNG, shards int) (*Supernet, []*Supernet) {
			master := New(s.VS, seqCfg.Vocab, seqCfg.SeqLen, rng.Split())
			replicas := make([]*Supernet, shards)
			for i := range replicas {
				replicas[i] = master.Replicate(rng.Split())
			}
			return master, replicas
		},
		// One batch of 16·BatchSize sequences.
		FinalBatches: 1,
		FinalScale:   16,
	}
	out, err := e.Run(cfg)
	if out == nil {
		return nil, err
	}
	res := &Result{Outcome: *out}
	if err == nil {
		res.BestArch = s.VS.Decode(res.Best)
	}
	return res, err
}
