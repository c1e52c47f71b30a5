// Command perfbench is netart's benchmark. It starts netartd's
// service.Server in-process behind Handler() on a loopback listener and
// drives POST /v2/generate closed-loop from the same process, one
// keep-alive connection per client goroutine, then checks every
// response. See README.md in this directory for the workloads, the
// metrics and how layer metrics map to end-to-end ones.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --steadiness 5
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (end-to-end with --trace 0, per-layer
// with --trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// buildDir holds everything the benchmark writes; scratchDir its
// throw-away stores.
const buildDir = ".bench_build"

var scratchDir = filepath.Join(buildDir, "tmp")

// setupRuns is how many times a --trace 0 run sets the daemon up;
// setup_s is the median.
const setupRuns = 5

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits names every end-to-end metric and its unit.
var endToEndUnits = map[string]string{
	"latency_p50_ms":    "ms",
	"latency_p90_ms":    "ms",
	"throughput_rps":    "req/s",
	"ok_ratio":          "ratio",
	"alloc_mb_per_req":  "MB",
	"peak_rss_mb":       "MB",
	"setup_s":           "s",
	"routed_nets_ratio": "ratio",
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, ".ms"), strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, "_ms_per_req"):
		return "ms"
	case strings.HasSuffix(name, "_kb"):
		return "KB"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_util"):
		return "ratio"
	}
	return "count"
}

func main() {
	name := flag.String("workload", "", "workload: life-cold, fresh-random or hot-mix (all with -steadiness)")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "0 prints end-to-end metrics, 1 runs the traced replay and prints per-layer metrics")
	steadiness := flag.Int("steadiness", 0, "run the workload N times with seeds seed..seed+N-1 and print the spread of each end-to-end metric")
	flag.Parse()

	if *steadiness > 0 {
		if err := runSteadiness(*name, *seed, *seconds, *steadiness); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %gs, trace %d, host %v\n", w.name, *seed, *seconds, *trace, hostShape())
	var res *result
	switch *trace {
	case 0:
		res, err = runEndToEnd(w, *seed, *seconds)
	case 1:
		res, err = runTraced(w, *seed, *seconds, filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", w.name, *seed)))
	default:
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runEndToEnd is an untraced run: set the daemon up setupRuns times,
// keep the last, and time the stream on it.
func runEndToEnd(w *workloadSpec, seed int64, seconds float64) (*result, error) {
	in, err := w.build(seed, seconds)
	if err != nil {
		return nil, err
	}
	var (
		e      *env
		setups []float64
	)
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			e.close()
		}
		var d time.Duration
		if e, d, err = setUp(w, in, false, nil); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	p := e.runPhase(in, seconds, nil)
	e.close()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	n := len(p.samples)
	if n < minWindowSamples {
		fmt.Fprintf(os.Stderr, "perfbench: only %d timed requests; latency_p90_ms needs %d\n", n, minWindowSamples)
	}
	sum := endToEndSummary(p)
	values := map[string]float64{
		"latency_p50_ms":    sum["latency_p50_ms"],
		"latency_p90_ms":    sum["latency_p90_ms"],
		"throughput_rps":    sum["throughput_rps"],
		"ok_ratio":          1 - float64(p.failed)/float64(max(n, 1)),
		"alloc_mb_per_req":  float64(p.allocBytes) / float64(max(n, 1)) / (1 << 20),
		"peak_rss_mb":       rss,
		"setup_s":           median(setups),
		"routed_nets_ratio": p.routedRatio(in),
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d requests in %.2fs (%g windows), setups %v\n", n, p.wall.Seconds(), sum["windows"], setups)
	res := &result{Correct: p.failed == 0 && n > 0, Attempted: n, Failed: p.failed, Metrics: map[string]metric{}}
	for k, v := range values {
		res.Metrics[k] = metric{Value: v, Unit: endToEndUnits[k]}
	}
	return res, nil
}

// runTraced measures the stream untraced for half the time, then sets
// up a fresh daemon and replays the same stream traced for the other
// half. It writes the traced-run report to out.
func runTraced(w *workloadSpec, seed int64, seconds float64, out string) (*result, error) {
	in, err := w.build(seed, seconds)
	if err != nil {
		return nil, err
	}
	e, _, err := setUp(w, in, false, nil)
	if err != nil {
		return nil, err
	}
	u := e.runPhase(in, seconds/2, nil)
	e.close()

	tr, err := newTracer(w)
	if err != nil {
		return nil, err
	}
	defer tr.close()
	e, _, err = setUp(w, in, true, tr.preloaded)
	if err != nil {
		return nil, err
	}
	tr.warmed(in)
	tp := e.runPhase(in, seconds/2, func(it *item, s *sample, body []byte) {
		tr.onSample(time.Duration(e.handlerNs[s.seq].Load()), it, s, body)
	})
	e.close()

	layers := tr.layerMetrics(u)
	rep := tr.report(w, seed, seconds, u, tp, layers)
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced-run report in %s (unattributed %.3f ms/request, overhead p50 %+.3f ms)\n",
		out, rep.UnattributedMs, rep.Overhead["latency_p50_ms"])

	attempted := len(u.samples) + len(tp.samples)
	failed := u.failed + tp.failed + tr.failures
	res := &result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for k, v := range layers {
		res.Metrics[k] = metric{Value: v, Unit: layerUnit(k)}
	}
	return res, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func nproc() int { return runtime.NumCPU() }

// hostShape is the machine the numbers were taken on.
func hostShape() map[string]any {
	return map[string]any{"nproc": nproc(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH}
}
