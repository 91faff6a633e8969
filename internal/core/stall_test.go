package core_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/metrics"
	"freepart.dev/freepart/internal/vclock"
)

// runBlur runs imread then a copy of cv.GaussianBlur registered as
// "test.blur", whose Exec first sleeps stall of wall time, under the
// default config. It returns the virtual clock and the metrics snapshot.
func runBlur(t *testing.T, stall time.Duration) (vclock.Duration, metrics.Snapshot) {
	t.Helper()
	k := kernel.New()
	reg := all.Registry()
	blur := *reg.MustGet("cv.GaussianBlur")
	blur.Name = "test.blur"
	impl := blur.Impl
	blur.Impl = func(ctx *framework.Ctx, args []framework.Value) ([]framework.Value, error) {
		time.Sleep(stall)
		return impl(ctx, args)
	}
	reg.Register(&blur)
	cat := analysis.New(reg, nil).Categorize()
	rt, err := core.New(k, reg, cat, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	writeImage(k, "/in.img", 8, 8)
	imgs, _, err := rt.Call("cv.imread", framework.Str("/in.img"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.Call("test.blur", imgs[0].Value()); err != nil {
		t.Fatalf("call stalled %v: %v", stall, err)
	}
	return k.Clock.Now(), rt.Metrics.Snapshot()
}

// TestWallStallDoesNotChangeReplay pins that no wall-clock deadline sits
// on the call path: an agent stalled longer than any plausible GC pause
// or race-detector slowdown still answers, and the run's virtual time and
// counters match the unstalled run exactly.
func TestWallStallDoesNotChangeReplay(t *testing.T) {
	fastNow, fastSnap := runBlur(t, 0)
	slowNow, slowSnap := runBlur(t, 2500*time.Millisecond)
	if slowNow != fastNow {
		t.Fatalf("virtual clock %v after a wall stall, want %v", slowNow, fastNow)
	}
	if !reflect.DeepEqual(slowSnap, fastSnap) {
		t.Fatalf("metrics after a wall stall:\n%+v\nwant:\n%+v", slowSnap, fastSnap)
	}
}

// TestNewStartsNoGoroutines pins that agents run inline on the caller's
// goroutine: bringing up the default runtime (four process-tier agents)
// starts no goroutine.
func TestNewStartsNoGoroutines(t *testing.T) {
	k := kernel.New()
	reg := all.Registry()
	cat := analysis.New(reg, nil).Categorize()
	before := runtime.NumGoroutine()
	rt, err := core.New(k, reg, cat, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("core.New started %d goroutines", after-before)
	}
}
