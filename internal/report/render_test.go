package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestWriteJSON round-trips every bench drill's row type through the
// artifact writer: the file is valid JSON ending in a newline, and reading
// it back yields rows deep-equal to the ones written. Cheap drills run for
// real; the isolation and defense rows are literals, since their drills
// replay the whole CVE corpus.
func TestWriteJSON(t *testing.T) {
	must := func(rows any, err error) any {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	cases := []struct {
		name string
		rows any
		back any // pointer to an empty slice of the row type
	}{
		{"serving", must(MeasureServing([]int{1}, 8)), &[]ServingResult{}},
		{"failover", must(MeasureFailover(2, 8, 1)), &[]FailoverResult{}},
		{"autoscale", must(MeasureAutoscale(1, 2, 2, 2, 16)), &[]AutoscaleResult{}},
		{"overload", must(MeasureOverload(2, 2, 1, 8, []int{2})), &[]OverloadResult{}},
		{"gray", must(MeasureGray(4, 16, 2, 10)), &[]GrayResult{}},
		{"partition", must(MeasurePartition(4, 4, 500, 300, 1.2)), &[]PartitionResult{}},
		{"isolation", []IsolationResult{{
			Policy: "paper", Blocked: 18, Total: 18, OverheadPct: 29.4,
			CVEs: []IsolationCVEOutcome{{CVE: "CVE-2017-12597", API: "cv.imread", Tier: "process", Blocked: true, Detected: true}},
		}}, &[]IsolationResult{}},
		{"defense", []DefenseResult{{
			Policy: "adaptive", Adaptive: true, Blocked: 18, Total: 18, FinalPolicy: "Data Loading=domain",
			Attacks:       []DefenseAttackOutcome{{CVE: "CVE-2017-14136", Wave: "probe", Outcome: "screened", Blocked: true}},
			DefenseEvents: []string{"tick 1 @0s release tenant 1"},
		}}, &[]DefenseResult{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_"+c.name+".json")
			if err := WriteJSON(path, c.rows); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(raw) == 0 || raw[len(raw)-1] != '\n' {
				t.Fatal("artifact should end with a newline")
			}
			if err := json.Unmarshal(raw, c.back); err != nil {
				t.Fatalf("artifact is not valid JSON: %v", err)
			}
			if got := reflect.ValueOf(c.back).Elem().Interface(); !reflect.DeepEqual(got, c.rows) {
				t.Fatalf("artifact did not round-trip:\n%+v\nvs\n%+v", got, c.rows)
			}
		})
	}
}
