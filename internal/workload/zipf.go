package workload

import (
	"math/rand"
	"sort"
)

// ZipfPopulation is a seeded, Zipf-skewed population of session keys: a
// universe of Users distinct keys where key rank r is drawn with probability
// proportional to 1/(r+v)^s. It is the shared session generator for every
// macro benchmark that needs tens of thousands of returning users with
// realistic popularity skew — a handful of hot keys dominate, a long tail
// appears once or twice.
type ZipfPopulation struct {
	// Users is the size of the key universe (distinct session keys).
	Users int
	// S is the skew exponent (must be > 1; larger is more skewed).
	S float64
	// Seed drives the draw sequence; the same (Users, S, Seed) triple
	// reproduces the identical key stream byte-for-byte.
	Seed int64
}

// Keys draws n session keys from the population. Keys are in [0, Users).
// The draw is fully deterministic: same receiver, same n ⇒ byte-equal
// output across runs and processes.
func (z ZipfPopulation) Keys(n int) []uint64 {
	users := z.Users
	if users <= 0 {
		users = 1
	}
	s := z.S
	if s <= 1 {
		s = 1.07 // below rand.NewZipf's domain; default to mild web-trace skew
	}
	rng := rand.New(rand.NewSource(z.Seed))
	zf := rand.NewZipf(rng, s, 1, uint64(users-1))
	out := make([]uint64, n)
	for i := range out {
		out[i] = zf.Uint64()
	}
	return out
}

// Hottest returns the m most frequent keys of a drawn stream, most popular
// first, ties broken by lower key. Benchmarks use it to aim a hot-range
// drill at the keys that actually dominate the draw.
func Hottest(keys []uint64, m int) []uint64 {
	counts := map[uint64]int{}
	for _, k := range keys {
		counts[k]++
	}
	type keyCount struct {
		key uint64
		n   int
	}
	byCount := make([]keyCount, 0, len(counts))
	for k, n := range counts {
		byCount = append(byCount, keyCount{k, n})
	}
	// (count desc, key asc) is a total order, so the result does not
	// depend on map iteration order.
	sort.Slice(byCount, func(i, j int) bool {
		a, b := byCount[i], byCount[j]
		return a.n > b.n || (a.n == b.n && a.key < b.key)
	})
	uniq := make([]uint64, len(byCount))
	for i, kc := range byCount {
		uniq[i] = kc.key
	}
	if m > len(uniq) {
		m = len(uniq)
	}
	return uniq[:m]
}
