package main

import (
	"h2onas/internal/jobs"
)

// inputs is everything a workload hands the program that depends on the
// benchmark seed. The workload's shape (shards, batch, steps, strategies)
// is fixed by its definition; only these values change with --seed, so two
// seeds run the same amount of work on different data.
type inputs struct {
	// StreamSeed seeds the synthetic traffic stream.
	StreamSeed uint64
	// SearchSeed is core.Config.Seed: candidate sampling, initial weights.
	SearchSeed uint64
	// Jobs is the cycle of job specs jobs-mix tenants submit, in order.
	Jobs []jobs.Spec
}

// jobStrategies is the cycle each jobs-mix tenant walks through.
var jobStrategies = []string{"reinforce", "random", "evolution", "halving"}

// makeInputs derives a workload's seed-dependent inputs from the
// benchmark seed. Each purpose gets its own splitmix64 stream so the seeds
// are unrelated to one another.
func makeInputs(workload string, seed uint64) inputs {
	in := inputs{
		StreamSeed: derive(seed, 1),
		SearchSeed: derive(seed, 2),
	}
	if workload == "jobs-mix" {
		for i, s := range jobStrategies {
			// Only the strategy and the seed are set: every other field
			// takes the service default, as a tenant's default job does.
			in.Jobs = append(in.Jobs, jobs.Spec{Strategy: s, Seed: derive(seed, uint64(3+i))})
		}
	}
	return in
}

// derive returns a nonzero seed for one purpose (zero means "default" to
// jobs.Spec, so it is never produced).
func derive(seed, purpose uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + purpose*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}
