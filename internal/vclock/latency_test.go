package vclock

import (
	"math"
	"sort"
	"sync"
	"testing"
)

// TestPercentileEmpty pins the zero-sample convention: every percentile of
// an empty distribution reads zero, not a panic or a sentinel.
func TestPercentileEmpty(t *testing.T) {
	var l Latencies
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if got := l.Percentile(p); got != 0 {
			t.Fatalf("empty Percentile(%v) = %v, want 0", p, got)
		}
	}
	if l.Mean() != 0 {
		t.Fatalf("empty Mean = %v, want 0", l.Mean())
	}
	if l.Len() != 0 {
		t.Fatalf("empty Len = %d, want 0", l.Len())
	}
}

// TestPercentileSingleSample checks that one sample answers every
// percentile: nearest-rank with n=1 always resolves to rank 1.
func TestPercentileSingleSample(t *testing.T) {
	var l Latencies
	l.Add(42)
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := l.Percentile(p); got != 42 {
			t.Fatalf("single-sample Percentile(%v) = %v, want 42", p, got)
		}
	}
}

// TestPercentileBounds pins the p0/p100 endpoints (and out-of-range
// clamps) to the minimum and maximum samples.
func TestPercentileBounds(t *testing.T) {
	var l Latencies
	for _, d := range []Duration{30, 10, 50, 20, 40} {
		l.Add(d)
	}
	cases := []struct {
		p    float64
		want Duration
	}{
		{-5, 10}, {0, 10}, {100, 50}, {150, 50},
	}
	for _, c := range cases {
		if got := l.Percentile(c.p); got != c.want {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestPercentileNearestRank pins the nearest-rank definition —
// ceil(p/100*n), 1-based — on a distribution small enough to enumerate.
func TestPercentileNearestRank(t *testing.T) {
	var l Latencies
	for i := 1; i <= 10; i++ {
		l.Add(Duration(i * 100))
	}
	cases := []struct {
		p    float64
		want Duration
	}{
		{10, 100},  // rank ceil(1) = 1
		{11, 200},  // rank ceil(1.1) = 2
		{50, 500},  // rank ceil(5) = 5
		{51, 600},  // rank ceil(5.1) = 6
		{90, 900},  // rank ceil(9) = 9
		{95, 1000}, // rank ceil(9.5) = 10
		{99, 1000}, // rank ceil(9.9) = 10
	}
	for _, c := range cases {
		if got := l.Percentile(c.p); got != c.want {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestPercentileDuplicates checks that tied samples are each ranked: a
// distribution dominated by one value answers that value across the
// quantile range instead of skipping ranks.
func TestPercentileDuplicates(t *testing.T) {
	var l Latencies
	for i := 0; i < 9; i++ {
		l.Add(70)
	}
	l.Add(900)
	for _, p := range []float64{1, 25, 50, 89, 90} {
		if got := l.Percentile(p); got != 70 {
			t.Fatalf("Percentile(%v) = %v, want 70", p, got)
		}
	}
	if got := l.Percentile(91); got != 900 {
		t.Fatalf("Percentile(91) = %v, want 900", got)
	}
	if got := l.Percentile(100); got != 900 {
		t.Fatalf("Percentile(100) = %v, want 900", got)
	}
}

// TestPercentileMonotone sweeps the quantile range and requires the
// percentile function to be non-decreasing — the property every caller
// (hedge-delay derivation included) implicitly relies on.
func TestPercentileMonotone(t *testing.T) {
	var l Latencies
	// A lumpy distribution: duplicates, a gap, and an outlier.
	for _, d := range []Duration{5, 5, 5, 8, 8, 21, 21, 21, 34, 1000} {
		l.Add(d)
	}
	prev := l.Percentile(0)
	for p := 1; p <= 100; p++ {
		cur := l.Percentile(float64(p))
		if cur < prev {
			t.Fatalf("Percentile not monotone: p%d = %v < p%d = %v", p, cur, p-1, prev)
		}
		prev = cur
	}
}

// TestAddClampsNegative pins the clamp: negative samples (a crashed shard
// clock reading zero) record as zero rather than corrupting the sort.
func TestAddClampsNegative(t *testing.T) {
	var l Latencies
	l.Add(-5)
	l.Add(10)
	if got := l.Percentile(0); got != 0 {
		t.Fatalf("min after negative Add = %v, want 0", got)
	}
}

// TestPercentileInterleavedAdds interleaves Adds with percentile reads, so
// reads hit both a freshly appended (unsorted) tail and an already sorted
// sample, and checks every answer against a freshly sorted copy.
func TestPercentileInterleavedAdds(t *testing.T) {
	var l Latencies
	var all []Duration
	for i := 0; i < 200; i++ {
		// A scrambled, duplicate-heavy sequence: descending runs with
		// repeats, so appends land out of order after every sort.
		d := Duration((i*7919)%97) * 10
		l.Add(d)
		all = append(all, d)
		if i%3 != 0 {
			continue
		}
		ref := append([]Duration(nil), all...)
		sort.Slice(ref, func(a, b int) bool { return ref[a] < ref[b] })
		for _, p := range []float64{0, 1, 25, 50, 90, 95, 99, 100} {
			rank := int(math.Ceil(p / 100 * float64(len(ref))))
			if rank < 1 {
				rank = 1
			}
			want := ref[rank-1]
			if got := l.Percentile(p); got != want {
				t.Fatalf("after %d adds: Percentile(%v) = %v, want %v", len(all), p, got, want)
			}
		}
		if l.Len() != len(all) {
			t.Fatalf("Len = %d, want %d", l.Len(), len(all))
		}
	}
}

// TestPercentileConcurrent reads percentiles while other goroutines Add,
// so the in-place sort races appends unless both hold the mutex; the final
// answers must match a freshly sorted copy of everything added.
func TestPercentileConcurrent(t *testing.T) {
	var l Latencies
	const writers, perWriter = 4, 250
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Add(Duration((w*perWriter + i) * 7 % 1000))
				_ = l.P99()
			}
		}(w)
	}
	wg.Wait()
	ref := make([]Duration, 0, writers*perWriter)
	for n := 0; n < writers*perWriter; n++ {
		ref = append(ref, Duration(n*7%1000))
	}
	sort.Slice(ref, func(a, b int) bool { return ref[a] < ref[b] })
	for _, p := range []float64{0, 50, 95, 99, 100} {
		rank := max(int(math.Ceil(p/100*float64(len(ref)))), 1)
		if got, want := l.Percentile(p), ref[rank-1]; got != want {
			t.Fatalf("Percentile(%v) = %v, want %v", p, got, want)
		}
	}
}
