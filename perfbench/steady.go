package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadyFirst are the metrics whose run-to-run spread matters most;
// they print first.
var steadyFirst = []string{"setup_s", "latency_p50_ms", "latency_p90_ms"}

// runSteadiness runs each named workload n times back to back, each in
// its own process with the next seed, and prints, per end-to-end
// metric, the median, the quartiles and the spreads as shares of the
// median: the interquartile range, and max minus min.
func runSteadiness(name string, seed int64, seconds float64, n int) error {
	names := []string{name}
	if name == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var summary []map[string]any
	for _, wn := range names {
		if _, err := findWorkload(wn); err != nil {
			return err
		}
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", wn, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wn, s, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", wn, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: incorrect output", wn, s)
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
		}
		fmt.Printf("\n%s: %d runs, seeds %d..%d, %gs each\n", wn, n, seed, seed+int64(n)-1, seconds)
		fmt.Printf("%-18s %8s %14s %14s %14s %9s %9s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "range/med")
		for _, k := range steadyOrder(values) {
			v := values[k]
			q := quartiles(v)
			sorted := append([]float64(nil), v...)
			sort.Float64s(sorted)
			med := median(v)
			iqr, rng := 0.0, 0.0
			if med != 0 {
				iqr = (q[2] - q[0]) / med
				rng = (sorted[len(sorted)-1] - sorted[0]) / med
			}
			fmt.Printf("%-18s %8s %14.6g %14.6g %14.6g %9.4f %9.4f\n", k, endToEndUnits[k], med, q[0], q[2], iqr, rng)
			summary = append(summary, map[string]any{"workload": wn, "metric": k, "median": med,
				"q1": q[0], "q3": q[2], "iqr_share": iqr, "range_share": rng, "values": v})
		}
	}
	b, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func steadyOrder(values map[string][]float64) []string {
	var rest []string
	for k := range values {
		first := false
		for _, f := range steadyFirst {
			first = first || k == f
		}
		if !first {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	return append(append([]string(nil), steadyFirst...), rest...)
}

// quartiles matches Python's statistics.quantiles(values, n=4) with its
// default exclusive method.
func quartiles(values []float64) [3]float64 {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	var q [3]float64
	if ld < 2 {
		if ld == 1 {
			q = [3]float64{data[0], data[0], data[0]}
		}
		return q
	}
	m := ld + 1
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return q
}
