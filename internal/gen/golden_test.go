package gen

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/route"
	"netart/internal/workload"
)

// This file is the golden-corpus half of the regression net: the five
// built-in workloads are rendered to ASCII and SVG and compared
// byte-for-byte against pinned files under testdata/golden/. Any
// change to partitioning, placement, routing or rendering that moves a
// single character shows up as a reviewable diff in the corpus rather
// than a silent drift.
//
// After an intentional pipeline change, regenerate the corpus with
//
//	go test ./internal/gen -run TestGoldenCorpus -update
//
// and commit the rewritten files alongside the change that caused
// them.

var updateGolden = flag.Bool("update", false, "rewrite the golden corpus under testdata/golden")

// goldenCase pins one workload at the option set its demo/bench
// counterparts use, so the corpus reflects artwork users actually see.
type goldenCase struct {
	name  string
	build func() *netlist.Design
	opts  Options
	slow  bool
}

func goldenCases() []goldenCase {
	return []goldenCase{
		// netart -demo fig61 (figure 6.1: one partition, one box).
		{"fig61", workload.Fig61,
			Options{Place: place.Options{PartSize: 6, BoxSize: 6},
				Route: route.Options{Claimpoints: true}}, false},
		// examples/quickstart, verbatim options.
		{"quickstart", workload.Quickstart,
			Options{Place: place.Options{PartSize: 4, BoxSize: 4},
				Route: route.Options{Claimpoints: true}}, false},
		// netart -demo datapath (figures 6.2–6.5) at the defaults.
		{"datapath", workload.Datapath16, DefaultOptions(), false},
		// netart -demo cpu: extra module/box tracks for the wide buses.
		{"cpu", workload.CPU,
			Options{Place: place.Options{PartSize: 7, BoxSize: 5,
				ModSpacing: 1, BoxSpacing: 1},
				Route: route.Options{Claimpoints: true}}, false},
		// netart -demo life (figures 6.6/6.7) with its spacing set.
		{"life", workload.Life27,
			Options{Place: place.Options{PartSize: 5, BoxSize: 5,
				ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3},
				Route: route.Options{Claimpoints: true}}, true},
	}
}

// goldenRender runs the pipeline for a case and returns the two
// rendered artifacts.
func goldenRender(t *testing.T, tc goldenCase) (ascii, svg []byte) {
	t.Helper()
	rep, err := Run(context.Background(), tc.build(), tc.opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Diagram.Verify(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rep.Diagram.WriteSVG(&sb); err != nil {
		t.Fatal(err)
	}
	return []byte(rep.Diagram.ASCII()), []byte(sb.String())
}

// compareGolden checks got against testdata/golden/<name> byte for
// byte, rewriting the file under -update.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to create it): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden corpus (%d got vs %d want bytes);\n"+
			"if the change is intentional, regenerate with:\n"+
			"  go test ./internal/gen -run TestGoldenCorpus -update\n%s",
			name, len(got), len(want), goldenDiff(want, got))
	}
}

// goldenDiff renders a short first-divergence report: full unified
// diffs of kilobyte SVGs drown the signal, the first differing line is
// what a reviewer needs.
func goldenDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("first divergence at line %d:\n  golden: %q\n  got:    %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line count differs: golden %d, got %d", len(wl), len(gl))
}

// TestGoldenCorpus pins the rendered artwork of every built-in
// workload.
func TestGoldenCorpus(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("life corpus skipped in -short mode")
			}
			ascii, svg := goldenRender(t, tc)
			compareGolden(t, tc.name+".ascii", ascii)
			compareGolden(t, tc.name+".svg", svg)
		})
	}
}
