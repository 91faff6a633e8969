package report

import "testing"

// TestOverloadWFQFairShare pins the drill's fairness claim on the standard
// configuration (4 shards, 16 heavy / 4 light streams): at 4× and 10×
// offered load the light tenant demands more than half a slot, so WFQ must
// hold each tenant near an equal share of goodput whatever arrival
// layout the calibrated service time produces, and the queue bound must
// still shed the same total as FIFO.
func TestOverloadWFQFairShare(t *testing.T) {
	rows, err := MeasureOverload(4, 16, 4, 96, []int{4, 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(rows); i += 2 {
		fifo, wfq := rows[i], rows[i+1]
		if fifo.Policy != "fifo" || wfq.Policy != "wfq" || fifo.Factor != wfq.Factor {
			t.Fatalf("rows %d, %d: want a fifo/wfq pair, got %q %q", i, i+1, fifo.Scenario, wfq.Scenario)
		}
		if wfq.Failed != 0 || fifo.Failed != 0 {
			t.Fatalf("%dx: %d/%d streams failed", wfq.Factor, fifo.Failed, wfq.Failed)
		}
		if wfq.Admitted != fifo.Admitted {
			t.Fatalf("%dx: wfq admitted %d, fifo %d", wfq.Factor, wfq.Admitted, fifo.Admitted)
		}
		if wfq.LightShare < 0.45 || wfq.LightShare > 0.55 || wfq.Jain < 0.99 {
			t.Fatalf("%dx: wfq light share %.3f, Jain %.3f; want fair share (0.45–0.55, Jain ≥ 0.99)",
				wfq.Factor, wfq.LightShare, wfq.Jain)
		}
	}
}
