package gen

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"netart/internal/workload"
)

// The route gate: ci.sh's regression check on routing speed. A fixed
// route budget in milliseconds cannot tell a slower router from a
// slower host, so the gate times each cold life route against a fixed
// calibration kernel run right after it in the same process, and
// gates the median route/kernel ratio against routeGateRatio. Host
// drift moves both sides of a pair; a slower router moves only the
// route.
//
// After a deliberate change in routing speed, re-measure the ratio on
// the new tree with ten separate runs (-count stops at the first
// failing run):
//
//	for i in $(seq 10); do go test -run '^$' -bench '^BenchmarkRouteGate$' -benchtime 1x ./internal/gen; done
//
// and commit the median of the ten runs' ratios as routeGateRatio (each
// run logs its median ratio, a failing run too).
const (
	// routeGateRatio is the committed median route/kernel ratio
	// (EXPERIMENTS.md "Route gate" gives the runs behind it).
	routeGateRatio = 0.99
	// routeGateBand is how far the median ratio may exceed
	// routeGateRatio before the gate fails.
	routeGateBand = 0.15
	// routeGatePairs is the number of route/kernel pairs per run.
	routeGatePairs = 31
	// gateKernelRounds sizes the kernel to about one cold life route.
	gateKernelRounds = 5
)

// routeGate is the gate rule: the median of the per-pair route/kernel
// ratios, and whether it exceeds committed by more than band.
func routeGate(ratios []float64, committed, band float64) (float64, bool) {
	m := median(ratios)
	return m, m > committed*(1+band)
}

// median is the middle value of xs (the upper middle one for an even
// count; the gate takes an odd number of pairs).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// gateSide is the side of the calibration kernel's maze.
const gateSide = 512

// gateMaze is the calibration kernel: breadth-first floods of a fixed
// 512×512 maze (2.3 MB of state), a memory-bound search like the
// router's. It calls no netart code, so a router change cannot move
// it; it follows host drift in the route more closely than a
// cache-resident bit scan did (EXPERIMENTS.md "Route gate").
type gateMaze struct {
	blocked []bool
	dist    []int32
	queue   []int32
}

// newGateMaze blocks a fixed pseudo-random 30% of the cells, except
// the middle row, so a flood from the centre reaches the open
// majority of the maze.
func newGateMaze() *gateMaze {
	rng := rand.New(rand.NewSource(1))
	m := &gateMaze{
		blocked: make([]bool, gateSide*gateSide),
		dist:    make([]int32, gateSide*gateSide),
		queue:   make([]int32, 0, gateSide*gateSide),
	}
	for i := range m.blocked {
		m.blocked[i] = i/gateSide != gateSide/2 && rng.Intn(100) < 30
	}
	return m
}

// flood runs rounds floods from the centre, labelling each reached
// cell with its distance, and returns the number of cells reached.
func (m *gateMaze) flood(rounds int) uint64 {
	var reached uint64
	for r := 0; r < rounds; r++ {
		for i := range m.dist {
			m.dist[i] = -1
		}
		start := int32(gateSide/2*gateSide + gateSide/2)
		m.dist[start] = 0
		q := append(m.queue[:0], start)
		for h := 0; h < len(q); h++ {
			c := q[h]
			d := m.dist[c] + 1
			x := c % gateSide
			if x > 0 {
				q = m.visit(q, c-1, d)
			}
			if x < gateSide-1 {
				q = m.visit(q, c+1, d)
			}
			if c >= gateSide {
				q = m.visit(q, c-gateSide, d)
			}
			if c < gateSide*(gateSide-1) {
				q = m.visit(q, c+gateSide, d)
			}
		}
		reached += uint64(len(q))
	}
	return reached
}

// visit labels cell n with distance d and queues it, unless it is
// blocked or already labelled.
func (m *gateMaze) visit(q []int32, n, d int32) []int32 {
	if m.blocked[n] || m.dist[n] >= 0 {
		return q
	}
	m.dist[n] = d
	return append(q, n)
}

// gateSink keeps the kernel's result live.
var gateSink uint64

// BenchmarkRouteGate interleaves routeGatePairs cold life routes at
// the Fig. 6.7 options with the calibration kernel and fails when
// routeGate does. It ignores b.N: run it with -benchtime 1x, and never
// under -race, which slows the route far more than the kernel.
func BenchmarkRouteGate(b *testing.B) {
	maze := newGateMaze()
	opts := lifeFig67Options()
	ratios := make([]float64, routeGatePairs)
	var routeMs, kernelMs []float64
	for i := range ratios {
		// The collector stays off while the route runs: when its
		// cycles start depends on the test binary's live heap, they
		// run partly on the other core, and their cost does not grow
		// with the router's, so they would add noise and dilute a
		// router slowdown.
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		rep, err := Run(context.Background(), workload.Life27(), opts)
		debug.SetGCPercent(gcPercent)
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		t0 := time.Now()
		gateSink += maze.flood(gateKernelRounds)
		kernel := time.Since(t0)
		ratios[i] = float64(rep.Timings.Route) / float64(kernel)
		routeMs = append(routeMs, durMs(rep.Timings.Route))
		kernelMs = append(kernelMs, durMs(kernel))
	}
	m, fail := routeGate(ratios, routeGateRatio, routeGateBand)
	b.ReportMetric(m, "route/kernel")
	b.ReportMetric(median(routeMs), "route-ms")
	b.ReportMetric(median(kernelMs), "kernel-ms")
	summary := fmt.Sprintf("median route/kernel %.3f (limit %.3f = %.2f + %.0f%%), route %.2f ms, kernel %.2f ms; ratios %.2f",
		m, routeGateRatio*(1+routeGateBand), routeGateRatio, routeGateBand*100, median(routeMs), median(kernelMs), ratios)
	if fail {
		b.Fatal("route gate failed: " + summary)
	}
	b.Log("route gate passed: " + summary)
}

// TestRouteGateRule pins the gate rule on synthetic ratios: a run at
// the committed ratio passes, a uniformly 25% slower route fails, a
// minority of outlier pairs cannot fail the gate alone, and the
// committed band stays within the 20% the gate has always allowed.
func TestRouteGateRule(t *testing.T) {
	if routeGateBand <= 0 || routeGateBand > 0.20 {
		t.Fatalf("routeGateBand %.2f outside (0, 0.20]", routeGateBand)
	}
	base := []float64{0.94, 0.98, 1.00, 1.02, 1.05}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, r := range base {
			out[i] = r * f
		}
		return out
	}
	if m, fail := routeGate(base, 1, 0.15); fail || m != 1 {
		t.Fatalf("unchanged ratios: median %.3f fail %v, want 1 pass", m, fail)
	}
	if m, fail := routeGate(scaled(1.25), 1, 0.15); !fail {
		t.Fatalf("25%% slower route passed the gate (median %.3f)", m)
	}
	if m, fail := routeGate(scaled(1.14), 1, 0.15); fail {
		t.Fatalf("a median inside the band failed the gate (median %.3f)", m)
	}
	if m, fail := routeGate([]float64{0.94, 0.98, 1.00, 9, 9}, 1, 0.15); fail {
		t.Fatalf("two outlier pairs of five failed the gate (median %.3f)", m)
	}
}
