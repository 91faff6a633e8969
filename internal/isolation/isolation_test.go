package isolation

import (
	"reflect"
	"testing"

	"freepart.dev/freepart/internal/framework"
)

func TestTierOrdering(t *testing.T) {
	// boundaryFor picks the strongest tier among a partition's types, so
	// the ordering is load-bearing: host < domain < process.
	if !(TierHost < TierDomain && TierDomain < TierProcess) {
		t.Fatal("tier ordering broken")
	}
}

func TestTierOfDefaultsToProcess(t *testing.T) {
	var nilPol *Policy
	if got := nilPol.TierOf(framework.TypeLoading); got != TierProcess {
		t.Fatalf("nil policy TierOf = %v, want process", got)
	}
	p := &Policy{Name: "partial", Tiers: map[framework.APIType]Tier{framework.TypeStoring: TierHost}}
	if got := p.TierOf(framework.TypeLoading); got != TierProcess {
		t.Fatalf("absent type TierOf = %v, want process", got)
	}
	if got := p.TierOf(framework.TypeStoring); got != TierHost {
		t.Fatalf("mapped type TierOf = %v, want host", got)
	}
}

func TestPresets(t *testing.T) {
	types := framework.ConcreteTypes()
	for _, ty := range types {
		if got := Paper().TierOf(ty); got != TierProcess {
			t.Errorf("paper %s = %v", ty, got)
		}
		if got := ERIM().TierOf(ty); got != TierDomain {
			t.Errorf("erim %s = %v", ty, got)
		}
		if got := None().TierOf(ty); got != TierHost {
			t.Errorf("none %s = %v", ty, got)
		}
	}
	tiered := Tiered()
	want := map[framework.APIType]Tier{
		framework.TypeLoading:     TierProcess,
		framework.TypeProcessing:  TierProcess,
		framework.TypeVisualizing: TierDomain,
		framework.TypeStoring:     TierDomain,
	}
	for ty, w := range want {
		if got := tiered.TierOf(ty); got != w {
			t.Errorf("tiered %s = %v, want %v", ty, got, w)
		}
	}
}

func TestHasTier(t *testing.T) {
	if !Tiered().HasTier(TierDomain) || !Tiered().HasTier(TierProcess) {
		t.Fatal("tiered must report both its tiers")
	}
	if Paper().HasTier(TierDomain) {
		t.Fatal("paper has no domain tier")
	}
	var nilPol *Policy
	if !nilPol.HasTier(TierProcess) || nilPol.HasTier(TierHost) {
		t.Fatal("nil policy is all-process")
	}
}

func TestHasTierEmptyAndPartial(t *testing.T) {
	// An empty Tiers map resolves every type to process, so process is the
	// only tier the policy "has".
	empty := &Policy{Name: "empty"}
	if !empty.HasTier(TierProcess) {
		t.Fatal("empty policy must report the process tier")
	}
	if empty.HasTier(TierDomain) || empty.HasTier(TierHost) {
		t.Fatal("empty policy has no explicit tiers")
	}
	partial := &Policy{Name: "partial", Tiers: map[framework.APIType]Tier{framework.TypeVisualizing: TierDomain}}
	if !partial.HasTier(TierDomain) {
		t.Fatal("partial policy must report its explicit domain tier")
	}
	if !partial.HasTier(TierProcess) {
		t.Fatal("partial policy must report process for its unmapped types")
	}
	if partial.HasTier(TierHost) {
		t.Fatal("partial policy never assigns host")
	}
}

func TestWithTierEscalateAnnealRoundTrip(t *testing.T) {
	// The adaptive defense loop escalates with WithTier and anneals back;
	// the round trip must restore Equal-ity with the floor without ever
	// mutating it.
	floor := ERIM()
	esc := floor.WithTier(framework.TypeLoading, TierProcess)
	if floor.TierOf(framework.TypeLoading) != TierDomain {
		t.Fatal("WithTier mutated its receiver")
	}
	if esc.Equal(floor) {
		t.Fatal("escalated policy must not compare equal to the floor")
	}
	if got := esc.TierOf(framework.TypeLoading); got != TierProcess {
		t.Fatalf("escalated tier = %v, want process", got)
	}
	back := esc.WithTier(framework.TypeLoading, TierDomain)
	if !back.Equal(floor) {
		t.Fatal("escalate-then-anneal round trip must restore equality")
	}

	// A nil receiver starts the copy from the all-process default so the
	// other types keep resolving consistently.
	var nilPol *Policy
	m := nilPol.WithTier(framework.TypeStoring, TierHost)
	if got := m.TierOf(framework.TypeStoring); got != TierHost {
		t.Fatalf("nil WithTier assigned %v, want host", got)
	}
	if got := m.TierOf(framework.TypeLoading); got != TierProcess {
		t.Fatalf("nil WithTier left %v for unmapped types, want process", got)
	}

	// Equal ignores names and treats absent assignments as process.
	if !(&Policy{Name: "anything"}).Equal(Paper()) {
		t.Fatal("absent assignments must compare as process-tier")
	}
}

func TestByNameAndNames(t *testing.T) {
	for _, name := range Names() {
		p, ok := ByName(name)
		if !ok || p.Name != name {
			t.Fatalf("ByName(%q) = %+v, %v", name, p, ok)
		}
	}
	if _, ok := ByName("bogus"); ok {
		t.Fatal("ByName must reject unknown policies")
	}
	want := []string{"erim", "none", "paper", "tiered"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v (sorted)", got, want)
	}
}

// TestDescribe pins the rendered tier assignment: ConcreteTypes order,
// long type names, comma-joined, absent types reading as process.
func TestDescribe(t *testing.T) {
	cases := []struct {
		p    *Policy
		want string
	}{
		{Paper(), "Data Loading=process,Data Processing=process,Visualizing=process,Storing=process"},
		{Tiered(), "Data Loading=process,Data Processing=process,Visualizing=domain,Storing=domain"},
		{None(), "Data Loading=host,Data Processing=host,Visualizing=host,Storing=host"},
		{ERIM().WithTier(framework.TypeLoading, TierProcess), "Data Loading=process,Data Processing=domain,Visualizing=domain,Storing=domain"},
		{nil, "Data Loading=process,Data Processing=process,Visualizing=process,Storing=process"},
	}
	for _, c := range cases {
		if got := c.p.Describe(); got != c.want {
			t.Errorf("Describe() = %q, want %q", got, c.want)
		}
	}
}
