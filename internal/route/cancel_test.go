package route

import (
	"context"
	"errors"
	"testing"
	"time"

	"netart/internal/place"
	"netart/internal/workload"
)

func placedDatapath(t testing.TB) *place.Result {
	t.Helper()
	pr, err := place.Place(workload.Datapath16(), place.Options{PartSize: 7, BoxSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestRouteCtxCancelled asserts a pre-cancelled context aborts the run
// and surfaces ctx.Err() instead of a partial result.
func TestRouteCtxCancelled(t *testing.T) {
	pr := placedDatapath(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rr, err := RouteCtx(ctx, pr, Options{Claimpoints: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (result=%v)", err, rr)
	}
	if rr != nil {
		t.Fatal("cancelled route must not return a result")
	}
}

// TestRouteCtxDeadline asserts an already-expired deadline surfaces as
// DeadlineExceeded from every engine.
func TestRouteCtxDeadline(t *testing.T) {
	pr := placedDatapath(t)
	for _, algo := range []Algo{AlgoLineExpansion, AlgoLee, AlgoLeeLength} {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		rr, err := RouteCtx(ctx, pr, Options{Claimpoints: true, Algorithm: algo})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%v: want DeadlineExceeded, got %v (result=%v)", algo, err, rr)
		}
	}
}

// TestRouteCtxBackgroundMatchesRoute asserts the context plumbing does
// not change results: RouteCtx with a background context routes exactly
// what Route does.
func TestRouteCtxBackgroundMatchesRoute(t *testing.T) {
	pr := placedDatapath(t)
	a, err := Route(pr, Options{Claimpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	prB := placedDatapath(t)
	b, err := RouteCtx(context.Background(), prB, Options{Claimpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.UnroutedCount() != b.UnroutedCount() {
		t.Fatalf("unrouted mismatch: Route=%d RouteCtx=%d", a.UnroutedCount(), b.UnroutedCount())
	}
	if len(a.Nets) != len(b.Nets) {
		t.Fatalf("net count mismatch: %d vs %d", len(a.Nets), len(b.Nets))
	}
	for i := range a.Nets {
		if la, lb := totalLen(a.Nets[i].Segments), totalLen(b.Nets[i].Segments); la != lb {
			t.Errorf("net %q wire length mismatch: %d vs %d", a.Nets[i].Net.Name, la, lb)
		}
	}
}
