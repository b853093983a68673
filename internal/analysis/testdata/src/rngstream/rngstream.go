// Fixture for the rngstream analyzer. Loaded under the campaign import
// path so the scope check applies.
package rngfixture

import (
	"math/rand"

	"repro/internal/des"
)

// perTrial is the sanctioned seam: a pure function of (seed, index).
func perTrial(seed uint64, trial int) *des.Rand {
	return des.NewRandIndexed(seed, uint64(trial))
}

// reseeded is the same seam in place: the stream a slot reuses is
// reseeded from (seed, index) for every trial.
func reseeded(r *des.Rand, seed uint64, trial int) {
	r.SeedIndexed(seed, uint64(trial))
}

// perStratumTrial is the adaptive campaign's sanctioned seam: a pure
// function of (seed, stratum key, within-stratum index).
func perStratumTrial(seed, key uint64, idx int) *des.Rand {
	return des.NewRandIndexed2(seed, key, uint64(idx))
}

// reseededStratumTrial is the same seam in place: the stream a round
// reuses is reseeded from (seed, stratum key, index) for every trial.
func reseededStratumTrial(r *des.Rand, seed, key uint64, idx int) {
	r.SeedIndexed2(seed, key, uint64(idx))
}

func rootStream(seed uint64) *des.Rand {
	return des.NewRand(seed) // want `des\.NewRand in campaign/worker code`
}

func splitStream(r *des.Rand) *des.Rand {
	return r.Split() // want `Rand\.Split derives the child`
}

func mathRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want `math/rand\.New in campaign/worker code` `math/rand\.NewSource in campaign/worker code`
}

func allowed(seed uint64) *des.Rand {
	//nlft:allow rngstream campaign root seed derivation, runs once before any trial
	return des.NewRand(seed)
}
