package des

import (
	"math"
	"math/bits"
)

// Rand is a small, fast, deterministic pseudo-random stream
// (SplitMix64-seeded xoshiro256**). Each model component takes its own
// stream so that adding draws in one component never perturbs another —
// a requirement for reproducible fault-injection campaigns.
//
// The zero value is not usable; construct streams with NewRand, or seed
// one in place with SeedIndexed.
type Rand struct {
	s [4]uint64
}

// NewRand returns a stream seeded from seed via SplitMix64, so nearby
// seeds still yield decorrelated streams.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.seed(seed)
	return r
}

// seed sets r's state from seed via SplitMix64.
func (r *Rand) seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		r.s[i] = mix64(sm)
	}
}

// Split derives an independent child stream. The child is a pure function
// of the parent's current state, so the derivation itself is reproducible.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64() ^ 0xa3ec647659359acd)
}

// mix64 is the SplitMix64 finalizer: a bijective avalanche mix whose
// output bits all depend on all input bits.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRandIndexed returns the idx-th stream of the family identified by
// seed. The stream is a pure function of (seed, idx) — no draw order or
// shared state is involved — so workers can derive per-trial streams in
// any order and a parallel consumer reproduces a sequential one exactly.
// Both arguments are avalanche-mixed before combination, so families with
// nearby seeds and streams with nearby indices stay decorrelated.
func NewRandIndexed(seed, idx uint64) *Rand {
	r := &Rand{}
	r.SeedIndexed(seed, idx)
	return r
}

// SeedIndexed reseeds r in place as the idx-th stream of seed's family:
// r then draws exactly what NewRandIndexed(seed, idx) would. A consumer
// that derives one stream per trial keeps a single Rand value and
// reseeds it, so no trial allocates a stream.
//
//nlft:noalloc
func (r *Rand) SeedIndexed(seed, idx uint64) {
	r.seed(mix64(seed+0x9e3779b97f4a7c15) ^ mix64(idx+0x6a09e667f3bcc909))
}

// NewRandIndexed2 returns the (stream, idx)-th member of the
// two-level stream family identified by seed — the NewRandIndexed
// discipline extended one level, for consumers that partition their
// draws twice (the adaptive campaign engine keys every trial's stream
// by (seed, stratum, within-stratum index)). Like NewRandIndexed, the
// result is a pure function of its arguments: no draw order or shared
// state is involved, so any scheduling of (stream, idx) pairs across
// workers replays the sequential derivation exactly. All three
// arguments are avalanche-mixed independently before combination, so
// families differing in one coordinate stay decorrelated, and
// NewRandIndexed2(seed, s, i) never collides structurally with
// NewRandIndexed(seed, i) (distinct additive constants).
func NewRandIndexed2(seed, stream, idx uint64) *Rand {
	r := &Rand{}
	r.SeedIndexed2(seed, stream, idx)
	return r
}

// SeedIndexed2 reseeds r in place as the (stream, idx)-th member of
// seed's two-level family: r then draws exactly what
// NewRandIndexed2(seed, stream, idx) would, so a consumer drawing many
// trials keeps one Rand value and reseeds it per trial.
//
//nlft:noalloc
func (r *Rand) SeedIndexed2(seed, stream, idx uint64) {
	r.seed(mix64(seed+0x9e3779b97f4a7c15) ^
		mix64(stream+0xbb67ae8584caa73b) ^ mix64(idx+0x6a09e667f3bcc909))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("des: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, bias-free.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Exp returns a sample from the exponential distribution with the given
// rate (events per unit), i.e. mean 1/rate. It panics if rate <= 0.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("des: Exp with non-positive rate")
	}
	u := r.Float64()
	// 1-u is in (0,1], so the log is finite.
	return -math.Log(1-u) / rate
}

// ExpTime returns an exponentially distributed simulated duration with the
// given rate expressed in events per hour, as used by the paper's fault
// rates (λ in faults/hour).
func (r *Rand) ExpTime(ratePerHour float64) Time {
	h := r.Exp(ratePerHour)
	if h >= float64(MaxTime)/float64(Hour) {
		return MaxTime
	}
	return Time(h * float64(Hour))
}
