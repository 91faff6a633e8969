package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestParseArgs runs the command-line validation over good and bad inputs:
// each bad value must fail with an error naming the offending flag (and,
// where the message guides the user, the expected form) before any act
// runs.
func TestParseArgs(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the error; empty means valid
		check   func(options) bool
	}{
		{"defaults", nil, "", func(o options) bool {
			return o.concurrency == 4 && o.requests == 32 && o.killShard == -1 && o.slowShard == -1
		}},
		{"kill shard id", []string{"-kill-shard", "2"}, "", func(o options) bool { return o.killShard == 2 }},
		{"kill shard with time rejected", []string{"-kill-shard", "2@1ms"}, "pass the shard id alone, e.g. -kill-shard 2", nil},
		{"kill shard out of range", []string{"-kill-shard", "4"}, "out of range [0,4)", nil},
		{"kill shard not a number", []string{"-kill-shard", "x"}, "-kill-shard", nil},
		{"slow shard", []string{"-slow-shard", "1@2.5"}, "", func(o options) bool { return o.slowShard == 1 && o.slowFactor == 2.5 }},
		{"slow shard without factor", []string{"-slow-shard", "2"}, "want <id>@<factor>", nil},
		{"slow shard factor not above 1", []string{"-slow-shard", "2@1"}, "want a factor above 1", nil},
		{"slow shard out of range", []string{"-concurrency", "2", "-slow-shard", "2@10"}, "out of range [0,2)", nil},
		{"isolation policy", []string{"-isolation", "tiered"}, "", func(o options) bool { return o.isolation == "tiered" }},
		{"unknown isolation policy", []string{"-isolation", "sgx"}, "want one of erim|none|paper|tiered", nil},
		{"zipf must exceed 1", []string{"-partitions", "4", "-zipf", "1"}, "-zipf 1: the Zipf skew must exceed 1", nil},
		{"zipf ignored without partitions", []string{"-zipf", "0.5"}, "", nil},
		{"negative overload", []string{"-overload", "-1"}, "-overload -1", nil},
		{"negative requests", []string{"-requests", "-1"}, "-requests -1", nil},
		{"negative partitions", []string{"-partitions", "-2"}, "-partitions -2", nil},
		{"zero concurrency", []string{"-concurrency", "0"}, "-concurrency 0", nil},
		{"undefined flag", []string{"-shards", "4"}, "flag provided but not defined", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("server", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			o, err := parseArgs(fs, c.args)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("parseArgs(%q) = %v, want success", c.args, err)
				}
				if c.check != nil && !c.check(o) {
					t.Fatalf("parseArgs(%q) = %+v", c.args, o)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("parseArgs(%q) error = %v, want it to contain %q", c.args, err, c.wantErr)
			}
		})
	}
}

// TestActPrecedence pins which drill a flag combination selects, and that
// only the serving and failover drills follow the availability act.
func TestActPrecedence(t *testing.T) {
	cases := []struct {
		args       []string
		banner     string
		standalone bool
	}{
		{nil, "serving mode (4 shards)", false},
		{[]string{"-kill-shard", "1"}, "failover mode (4 shards, kill shard 1)", false},
		{[]string{"-autoscale", "-kill-shard", "1"}, "autoscaling mode (2..4 shards)", true},
		{[]string{"-autoscale", "-concurrency", "2"}, "autoscaling mode (2..3 shards)", true},
		{[]string{"-slow-shard", "2@10", "-autoscale"}, "gray-failure mode (4 shards, shard 2 at 10x)", true},
		{[]string{"-overload", "4", "-slow-shard", "2@10"}, "overload mode (4 shards, 4x capacity)", true},
		{[]string{"-isolation", "erim", "-overload", "4"}, "isolation mode (erim policy, 4 shards)", true},
		{[]string{"-defense", "-isolation", "erim"}, "adaptive defense mode (4 shards)", true},
		{[]string{"-partitions", "4", "-defense", "-concurrency", "3"}, "partition mode (4 shards, 4 partitions, zipf 1.10)", true},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("server", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o, err := parseArgs(fs, c.args)
		if err != nil {
			t.Fatalf("parseArgs(%q): %v", c.args, err)
		}
		a, standalone := o.act()
		if a.banner != c.banner || standalone != c.standalone {
			t.Errorf("%q selects %q (standalone %v), want %q (standalone %v)",
				c.args, a.banner, standalone, c.banner, c.standalone)
		}
	}
}
