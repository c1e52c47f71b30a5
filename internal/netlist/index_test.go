package netlist

import (
	"reflect"
	"testing"

	"netart/internal/geom"
)

func TestIndex(t *testing.T) {
	// M touches net n through two terminals and leaves R unconnected;
	// n also reaches O and the system terminal S.
	d := NewDesign("t")
	if _, err := d.AddModule("M", "", 4, 4, []TermSpec{
		{Name: "P", Type: InOut, Pos: geom.Pt(0, 1)},
		{Name: "Q", Type: InOut, Pos: geom.Pt(0, 2)},
		{Name: "R", Type: In, Pos: geom.Pt(4, 1)},
	}); err != nil {
		t.Fatal(err)
	}
	mustModule(t, d, "O", 3, 3)
	if _, err := d.AddSysTerm("S", In); err != nil {
		t.Fatal(err)
	}
	mustConnect(t, d, "n", "M", "P")
	mustConnect(t, d, "n", "M", "Q")
	mustConnect(t, d, "n", "O", "A")
	if err := d.ConnectSys("n", "S"); err != nil {
		t.Fatal(err)
	}

	ix := NewIndex(d)
	if got, want := ix.ModNets, [][]NetUse{{{Net: 0, Terms: 2}}, {{Net: 0, Terms: 1}}}; !reflect.DeepEqual(got, want) {
		t.Errorf("ModNets = %v, want %v", got, want)
	}
	if got, want := ix.TermNet[0], []int32{0, 0, -1}; !reflect.DeepEqual(got, want) {
		t.Errorf("TermNet[M] = %v, want %v", got, want)
	}
	if got, want := ix.NetMods[0], []int32{0, 0, 1, -1}; !reflect.DeepEqual(got, want) {
		t.Errorf("NetMods[n] = %v, want %v", got, want)
	}
	if ix.ModTerms[0] != 3 {
		t.Errorf("ModTerms[n] = %d, want 3", ix.ModTerms[0])
	}
	if id, ok := ix.ModID(d.Module("O")); !ok || id != 1 {
		t.Errorf("ModID(O) = %d, %v", id, ok)
	}
	if _, ok := ix.ModID(&Module{}); ok {
		t.Error("ModID found a module outside the design")
	}
}
