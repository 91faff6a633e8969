package vclock

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Latencies accumulates per-request virtual latencies and reports
// percentiles. Samples are virtual durations, so every statistic is
// bit-reproducible across runs. Safe for concurrent Add.
type Latencies struct {
	mu      sync.Mutex
	samples []Duration
	// dirty marks samples appended since the last in-place sort; the
	// first percentile read after an Add sorts, later reads reuse it.
	dirty bool
}

// Add records one latency sample. Negative samples are clamped to zero
// (virtual latency cannot be negative; a crashed shard clock reads zero).
func (l *Latencies) Add(d Duration) {
	if d < 0 {
		d = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples = append(l.samples, d)
	l.dirty = true
}

// Len returns the number of recorded samples.
func (l *Latencies) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.samples)
}

// Percentile returns the nearest-rank percentile p in [0, 100]. Zero
// samples read as zero.
func (l *Latencies) Percentile(p float64) Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dirty {
		slices.Sort(l.samples)
		l.dirty = false
	}
	s := l.samples
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	// Nearest-rank: ceil(p/100 * n), 1-based.
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// P50 is the median latency.
func (l *Latencies) P50() Duration { return l.Percentile(50) }

// P95 is the 95th-percentile latency.
func (l *Latencies) P95() Duration { return l.Percentile(95) }

// P99 is the 99th-percentile latency.
func (l *Latencies) P99() Duration { return l.Percentile(99) }

// Mean is the average latency (integer division of virtual nanoseconds).
func (l *Latencies) Mean() Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 {
		return 0
	}
	var sum Duration
	for _, d := range l.samples {
		sum += d
	}
	return sum / Duration(len(l.samples))
}

// String summarizes the distribution on one line.
func (l *Latencies) String() string {
	return fmt.Sprintf("n=%d p50=%v p95=%v p99=%v", l.Len(), l.P50(), l.P95(), l.P99())
}
