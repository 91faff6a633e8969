package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"regexp"
	"strings"
	"time"
)

var errNoSamples = errors.New("profile has no samples")

// shareFrames names the host cost each host_share metric tracks: a sample
// counts toward a share when any frame of its stack matches.
var shareFrames = map[string]*regexp.Regexp{
	"host_share.codec": regexp.MustCompile(`^freepart\.dev/freepart/internal/framework\.(Encode|Decode)(Call|Reply)$`),
	"host_share.futex": regexp.MustCompile(`^runtime\.futex$`),
	"host_share.gc":    regexp.MustCompile(`^runtime\.(gcBgMarkWorker|gcAssistAlloc|bgsweep|bgscavenge|sweepone)$`),
}

// profileShares reads a CPU profile with `go tool pprof -traces` and
// returns, per host_share metric, the fraction of sampled CPU time whose
// stack contains a matching frame (cumulative share).
func profileShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(raw)
}

// parseTraces sums sample values per share from pprof's -traces text:
// blocks separated by "-----+-----" lines, each opening with the sample's
// value and its leaf frame, then one caller frame per line.
func parseTraces(raw []byte) (map[string]float64, error) {
	var total time.Duration
	hit := map[string]time.Duration{}
	var val time.Duration
	var matched map[string]bool
	flush := func() {
		total += val
		for name := range matched {
			hit[name] += val
		}
		val, matched = 0, nil
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			if inBlock {
				flush()
			}
			inBlock = true
			continue
		}
		if !inBlock {
			continue
		}
		fields := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		if len(fields) == 0 {
			continue
		}
		frame := fields[len(fields)-1]
		if matched == nil {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("unexpected pprof -traces line %q", line)
			}
			val, matched = d, map[string]bool{}
		}
		for name, re := range shareFrames {
			if re.MatchString(frame) {
				matched[name] = true
			}
		}
	}
	if matched != nil {
		flush()
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, errNoSamples
	}
	out := map[string]float64{}
	for name := range shareFrames {
		out[name] = float64(hit[name]) / float64(total)
	}
	return out, nil
}
