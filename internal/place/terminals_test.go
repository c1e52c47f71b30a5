package place

import (
	"fmt"
	"testing"

	"netart/internal/geom"
	"netart/internal/library"
	"netart/internal/netlist"
)

// bufferWithTerminals is one BUF with n system terminals, each on its
// own net; net n0 also reaches the buffer's input.
func bufferWithTerminals(t *testing.T, n int) *netlist.Design {
	t.Helper()
	spec, err := library.Builtin().Template("BUF")
	if err != nil {
		t.Fatal(err)
	}
	d := netlist.NewDesign(fmt.Sprintf("buf%d", n))
	if _, err := d.AddModule("b0", "BUF", spec.W, spec.H, spec.Terms); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%d", i)
		if _, err := d.AddSysTerm(name, netlist.In); err != nil {
			t.Fatal(err)
		}
		if err := d.ConnectSys(fmt.Sprintf("n%d", i), name); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Connect("n0", "b0", spec.Terms[0].Name); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestManyTerminalsGetDistinctPoints fills the perimeter ring and the
// ring two tracks further out: the remaining terminals must move to
// wider rings, each on its own point, instead of sharing the zero
// point.
func TestManyTerminalsGetDistinctPoints(t *testing.T) {
	d := bufferWithTerminals(t, 80)
	if _, exhausted, _ := refPlace(d, Options{}); !exhausted {
		t.Fatal("80 terminals no longer fill both reference rings; the test lost its point")
	}
	res := mustPlace(t, d, Options{})
	seen := map[geom.Point]string{}
	for _, st := range d.SysTerms {
		p := res.SysPos[st]
		if prev, dup := seen[p]; dup {
			t.Fatalf("terminals %s and %s share %v", prev, st.Name, p)
		}
		seen[p] = st.Name
	}
	if len(seen) != 80 {
		t.Fatalf("%d distinct terminal points, want 80", len(seen))
	}
}

// TestFewTerminalsKeepTheirPoints: where the two reference rings hold
// every terminal, the placement is unchanged.
func TestFewTerminalsKeepTheirPoints(t *testing.T) {
	d := bufferWithTerminals(t, 40)
	if !checkAgainstReference(t, d, Options{}) {
		t.Fatal("40 terminals exhaust the reference rings")
	}
}
