package main

import (
	"math"
	"sort"
	"time"

	"freepart.dev/freepart/internal/vclock"
)

// median returns the middle of xs (mean of the two middles for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is a latency tail: the highest of p99, p99.9 and p99.99 that has at
// least minBeyond samples beyond it, reported with its percentile and the
// sample counts.
type tail struct {
	Pct    float64
	Value  vclock.Duration
	Beyond int
	N      int
}

const minBeyond = 10

// beyond counts the samples above the nearest-rank p-th percentile of n.
func beyond(p float64, n int) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n - rank
}

// tailOf picks the tail of l. With fewer than minBeyond samples beyond
// p99 it still reports p99 with its true count, so the shortfall shows.
func tailOf(l *vclock.Latencies) tail {
	n := l.Len()
	pct := 99.0
	for _, p := range []float64{99.99, 99.9} {
		if beyond(p, n) >= minBeyond {
			pct = p
			break
		}
	}
	return tail{Pct: pct, Value: l.Percentile(pct), Beyond: beyond(pct, n), N: n}
}

// percentileDur is the nearest-rank percentile of host durations.
func percentileDur(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func us(d vclock.Duration) float64 { return float64(d) / 1e3 }

// serviceSum is the summed virtual service time of the requests lat
// recorded: latency runs from arrival to completion and the queue wait is
// its admission part, so their difference is the time spent running.
func serviceSum(lat, waits *vclock.Latencies) vclock.Duration {
	return lat.Mean()*vclock.Duration(lat.Len()) - waits.Mean()*vclock.Duration(waits.Len())
}
