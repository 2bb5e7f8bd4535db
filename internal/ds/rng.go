package ds

import "math/rand/v2"

// NewRand returns a deterministic PCG-backed random source for the given
// seed. All randomized algorithms in this repository draw from streams
// created here so that every experiment is reproducible from its seed.
func NewRand(seed uint64) *rand.Rand {
	pcg := rand.NewPCG(0, 0)
	Reseed(pcg, seed)
	return rand.New(pcg)
}

// Reseed reseeds pcg in place to the state NewRand(seed) starts from, so
// long-lived consumers (the broadcast Scheduler handle) replay the exact
// per-seed stream without allocating a new generator.
func Reseed(pcg *rand.PCG, seed uint64) {
	pcg.Seed(seed, seed^0x9e3779b97f4a7c15)
}

// SplitSeed derives the PCG seed pair SplitRand would use for a stream,
// so long-lived consumers (cdsdist's per-node proposal streams) can
// reseed a PCG in place instead of allocating a new generator.
func SplitSeed(seed uint64, stream uint64) (uint64, uint64) {
	// SplitMix64-style avalanche of the pair keeps streams decorrelated.
	z := Mix64(seed + 0x9e3779b97f4a7c15*(stream+1))
	return z, z ^ 0xda942042e4dd58b5
}

// Mix64 is SplitMix64's finalizer: a bijection of the 64-bit words
// whose every output bit depends on every input bit.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitRand derives an independent stream from a parent seed and a
// stream index. Distributed nodes use SplitRand(seed, nodeID) so that
// per-node randomness is independent of scheduling order, matching the
// paper's model where each node has private coins.
func SplitRand(seed uint64, stream uint64) *rand.Rand {
	s1, s2 := SplitSeed(seed, stream)
	return rand.New(rand.NewPCG(s1, s2))
}

// Perm fills dst with a uniformly random permutation of 0..len(dst)-1
// drawn from rng.
func Perm(rng *rand.Rand, dst []int) {
	for i := range dst {
		dst[i] = i
	}
	rng.Shuffle(len(dst), func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
}
