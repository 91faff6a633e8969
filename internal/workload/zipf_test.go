package workload

import (
	"reflect"
	"testing"
)

func TestZipfDeterminism(t *testing.T) {
	pop := ZipfPopulation{Users: 10000, S: 1.2, Seed: 42}
	a := pop.Keys(5000)
	b := pop.Keys(5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must reproduce a byte-equal key stream")
	}
	c := ZipfPopulation{Users: 10000, S: 1.2, Seed: 43}.Keys(5000)
	if reflect.DeepEqual(a, c) {
		t.Fatal("distinct seeds produced identical key streams")
	}
}

func TestZipfKeysInRange(t *testing.T) {
	pop := ZipfPopulation{Users: 512, S: 1.5, Seed: 7}
	for _, k := range pop.Keys(4096) {
		if k >= 512 {
			t.Fatalf("key %d outside universe [0,512)", k)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// A steeper exponent concentrates more mass on the hottest key, and any
	// valid skew makes key 0 dominate a uniform share by a wide margin.
	n := 20000
	mild := ZipfPopulation{Users: 1000, S: 1.1, Seed: 5}.Keys(n)
	steep := ZipfPopulation{Users: 1000, S: 2.0, Seed: 5}.Keys(n)
	count := func(keys []uint64, k uint64) int {
		c := 0
		for _, x := range keys {
			if x == k {
				c++
			}
		}
		return c
	}
	if m, s := count(mild, 0), count(steep, 0); s <= m {
		t.Fatalf("steeper skew should concentrate on key 0: mild=%d steep=%d", m, s)
	}
	if c := count(mild, 0); c < 10*n/1000 {
		t.Fatalf("hot key drew %d of %d — no visible skew over uniform", c, n)
	}
}

func TestZipfDefaultsAreSafe(t *testing.T) {
	// Degenerate parameters must not panic and must stay in range.
	keys := ZipfPopulation{Users: 0, S: 0, Seed: 1}.Keys(16)
	for _, k := range keys {
		if k != 0 {
			t.Fatalf("single-user universe drew key %d", k)
		}
	}
}

func TestHottest(t *testing.T) {
	keys := []uint64{5, 5, 5, 2, 2, 9, 1, 1, 1, 1}
	got := Hottest(keys, 3)
	want := []uint64{1, 5, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Hottest = %v, want %v", got, want)
	}
	if h := Hottest(keys, 100); len(h) != 4 {
		t.Fatalf("Hottest with m beyond uniques returned %d keys, want 4", len(h))
	}
	// Equal counts rank by lower key, whatever order the keys arrive in.
	tied := []uint64{8, 3, 8, 3, 6}
	if got, want := Hottest(tied, 3), []uint64{3, 8, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Hottest with tied counts = %v, want %v", got, want)
	}
}
