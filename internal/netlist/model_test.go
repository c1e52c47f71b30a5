package netlist

import (
	"io"
	"strings"
	"testing"

	"netart/internal/geom"
)

// buildPair returns a design with two connected modules for reuse in
// tests: A.Y -- n1 -- B.A, plus system terminal SIN -- n2 -- A.A.
func buildPair(t *testing.T) *Design {
	t.Helper()
	d := NewDesign("pair")
	mustModule(t, d, "A", 3, 3)
	mustModule(t, d, "B", 3, 3)
	if _, err := d.AddSysTerm("SIN", In); err != nil {
		t.Fatal(err)
	}
	mustConnect(t, d, "n1", "A", "Y")
	mustConnect(t, d, "n1", "B", "A")
	mustConnect(t, d, "n2", "A", "A")
	if err := d.ConnectSys("n2", "SIN"); err != nil {
		t.Fatal(err)
	}
	return d
}

func mustModule(t *testing.T, d *Design, name string, w, h int) *Module {
	t.Helper()
	m, err := d.AddModule(name, "G", w, h, []TermSpec{
		{Name: "A", Type: In, Pos: geom.Pt(0, 1)},
		{Name: "Y", Type: Out, Pos: geom.Pt(w, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustConnect(t *testing.T, d *Design, net, mod, term string) {
	t.Helper()
	if err := d.Connect(net, mod, term); err != nil {
		t.Fatal(err)
	}
}

func TestTermTypeParsing(t *testing.T) {
	for _, s := range []string{"in", "out", "inout"} {
		typ, err := ParseTermType(s)
		if err != nil {
			t.Fatal(err)
		}
		if typ.String() != s {
			t.Errorf("round trip %q -> %q", s, typ)
		}
	}
	if _, err := ParseTermType("bogus"); err == nil {
		t.Error("expected error for bogus type")
	}
}

func TestTermTypeDriveSink(t *testing.T) {
	if In.CanDrive() || !In.CanSink() {
		t.Error("In drive/sink wrong")
	}
	if !Out.CanDrive() || Out.CanSink() {
		t.Error("Out drive/sink wrong")
	}
	if !InOut.CanDrive() || !InOut.CanSink() {
		t.Error("InOut drive/sink wrong")
	}
}

func TestTerminalSide(t *testing.T) {
	d := NewDesign("t")
	m, err := d.AddModule("M", "", 4, 3, []TermSpec{
		{Name: "L", Type: In, Pos: geom.Pt(0, 1)},
		{Name: "R", Type: Out, Pos: geom.Pt(4, 2)},
		{Name: "U", Type: In, Pos: geom.Pt(2, 3)},
		{Name: "D", Type: In, Pos: geom.Pt(1, 0)},
		{Name: "LL", Type: In, Pos: geom.Pt(0, 0)}, // corner resolves to left
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]geom.Dir{"L": geom.Left, "R": geom.Right, "U": geom.Up, "D": geom.Down, "LL": geom.Left}
	for name, dir := range want {
		got, err := m.Term(name).Side()
		if err != nil {
			t.Fatal(err)
		}
		if got != dir {
			t.Errorf("side(%s) = %v, want %v", name, got, dir)
		}
	}
}

func TestAddModuleRejectsBadGeometry(t *testing.T) {
	d := NewDesign("t")
	if _, err := d.AddModule("M", "", 4, 3, []TermSpec{
		{Name: "X", Type: In, Pos: geom.Pt(2, 1)}, // interior
	}); err == nil {
		t.Error("interior terminal accepted")
	}
	if _, err := d.AddModule("M2", "", 0, 3, nil); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := d.AddModule("", "", 1, 1, nil); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := d.AddModule("M3", "", 4, 3, []TermSpec{
		{Name: "X", Type: In, Pos: geom.Pt(0, 1)},
		{Name: "X", Type: In, Pos: geom.Pt(4, 1)},
	}); err == nil {
		t.Error("duplicate terminal accepted")
	}
}

func TestDuplicateNamesRejected(t *testing.T) {
	d := buildPair(t)
	if _, err := d.AddModule("A", "", 2, 2, nil); err == nil {
		t.Error("duplicate module accepted")
	}
	if _, err := d.AddSysTerm("SIN", Out); err == nil {
		t.Error("duplicate system terminal accepted")
	}
}

func TestConnectErrors(t *testing.T) {
	d := buildPair(t)
	if err := d.Connect("nx", "ZZ", "A"); err == nil {
		t.Error("unknown module accepted")
	}
	if err := d.Connect("nx", "A", "ZZ"); err == nil {
		t.Error("unknown terminal accepted")
	}
	if err := d.ConnectSys("nx", "ZZ"); err == nil {
		t.Error("unknown system terminal accepted")
	}
	// A terminal may not join two different nets.
	if err := d.Connect("other", "A", "Y"); err == nil {
		t.Error("terminal on two nets accepted")
	}
	// Re-recording the same membership is harmless.
	if err := d.Connect("n1", "A", "Y"); err != nil {
		t.Errorf("duplicate record rejected: %v", err)
	}
	if got := d.Net("n1").Degree(); got != 2 {
		t.Errorf("duplicate record changed degree to %d", got)
	}
}

func TestLookups(t *testing.T) {
	d := buildPair(t)
	if d.Module("A") == nil || d.Module("nope") != nil {
		t.Error("Module lookup wrong")
	}
	if d.Net("n1") == nil || d.Net("nope") != nil {
		t.Error("Net lookup wrong")
	}
	if d.SysTerm("SIN") == nil || d.SysTerm("nope") != nil {
		t.Error("SysTerm lookup wrong")
	}
}

func TestConnectedAndNetsBetween(t *testing.T) {
	d := buildPair(t)
	a, b := d.Module("A"), d.Module("B")
	if !Connected(a, b) || !Connected(b, a) {
		t.Error("A and B should be connected")
	}
	c := mustModule(t, d, "C", 3, 3)
	if Connected(a, c) {
		t.Error("A and C should not be connected")
	}
	if got := NetsBetween(a, map[*Module]bool{b: true}); got != 1 {
		t.Errorf("NetsBetween(A,{B}) = %d, want 1", got)
	}
	if got := NetsBetween(c, map[*Module]bool{a: true, b: true}); got != 0 {
		t.Errorf("NetsBetween(C,{A,B}) = %d, want 0", got)
	}
}

func TestNetsBetweenCountsNetsOnce(t *testing.T) {
	// A net touching m through two of its own terminals still counts once.
	d := NewDesign("t")
	m, err := d.AddModule("M", "", 4, 4, []TermSpec{
		{Name: "P", Type: InOut, Pos: geom.Pt(0, 1)},
		{Name: "Q", Type: InOut, Pos: geom.Pt(0, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	other := mustModule(t, d, "O", 3, 3)
	mustConnect(t, d, "n", "M", "P")
	mustConnect(t, d, "n", "M", "Q")
	mustConnect(t, d, "n", "O", "A")
	if got := NetsBetween(m, map[*Module]bool{other: true}); got != 1 {
		t.Errorf("NetsBetween = %d, want 1", got)
	}
}

func TestValidate(t *testing.T) {
	d := buildPair(t)
	if err := d.Validate(2); err != nil {
		t.Errorf("valid design rejected: %v", err)
	}
	mustConnect(t, d, "dangling", "B", "Y")
	if err := d.Validate(2); err == nil {
		t.Error("single-terminal net accepted with minNetDegree=2")
	}
	if err := d.Validate(1); err != nil {
		t.Errorf("minNetDegree=1 should accept: %v", err)
	}
}

func TestStats(t *testing.T) {
	d := buildPair(t)
	s := d.Stats()
	if s.Modules != 2 || s.Nets != 2 || s.SysTerms != 1 {
		t.Errorf("Stats = %+v", s)
	}
	if s.Terminals != 5 { // 2 per module + 1 system
		t.Errorf("Terminals = %d, want 5", s.Terminals)
	}
	if s.Multipoint != 0 {
		t.Errorf("Multipoint = %d, want 0", s.Multipoint)
	}
	mustConnect(t, d, "n1", "B", "Y") // now n1 has 3 terminals
	if got := d.Stats().Multipoint; got != 1 {
		t.Errorf("Multipoint = %d, want 1", got)
	}
}

func TestSortedNets(t *testing.T) {
	d := NewDesign("t")
	mustModule(t, d, "M", 3, 3)
	mustModule(t, d, "N", 3, 3)
	mustConnect(t, d, "zz", "M", "A")
	mustConnect(t, d, "aa", "M", "Y")
	mustConnect(t, d, "aa", "N", "A")
	mustConnect(t, d, "zz", "N", "Y")
	got := d.SortedNets()
	if got[0].Name != "aa" || got[1].Name != "zz" {
		t.Errorf("SortedNets order: %s, %s", got[0].Name, got[1].Name)
	}
}

func TestTerminalLabel(t *testing.T) {
	d := buildPair(t)
	if got := d.Module("A").Term("Y").Label(); got != "A.Y" {
		t.Errorf("Label = %q", got)
	}
	if got := d.SysTerm("SIN").Label(); got != "root.SIN" {
		t.Errorf("Label = %q", got)
	}
	if !d.SysTerm("SIN").IsSystem() {
		t.Error("IsSystem false for system terminal")
	}
	if d.Module("A").Term("Y").IsSystem() {
		t.Error("IsSystem true for subsystem terminal")
	}
	if _, err := d.SysTerm("SIN").Side(); err == nil {
		t.Error("Side() of system terminal should error")
	}
}

func TestModuleHelpers(t *testing.T) {
	d := buildPair(t)
	m := d.Module("A")
	if m.Term("A") == nil || m.Term("nope") != nil {
		t.Error("Term lookup wrong")
	}
	if m.Size() != geom.Pt(3, 3) {
		t.Error("Size wrong")
	}
}

func TestLoadRoundTrip(t *testing.T) {
	src := specSource{
		"G": {Name: "G", W: 3, H: 3, Terms: []TermSpec{
			{Name: "A", Type: In, Pos: geom.Pt(0, 1)},
			{Name: "Y", Type: Out, Pos: geom.Pt(3, 1)},
		}},
	}
	call := "m0 G\nm1 G\n"
	nets := "w m0 Y\nw m1 A\nx root X\nx m0 A\n"
	io := "X in\n"
	d, err := Load("rt", strings.NewReader(call), strings.NewReader(nets), strings.NewReader(io), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Modules) != 2 || len(d.Nets) != 2 || len(d.SysTerms) != 1 {
		t.Fatalf("loaded %d modules, %d nets, %d sysTerms", len(d.Modules), len(d.Nets), len(d.SysTerms))
	}

	var cb, nb, ib strings.Builder
	if err := WriteCallFile(&cb, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteNetListFile(&nb, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteIOFile(&ib, d); err != nil {
		t.Fatal(err)
	}
	d2, err := Load("rt2", strings.NewReader(cb.String()), strings.NewReader(nb.String()),
		strings.NewReader(ib.String()), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Modules) != len(d.Modules) || len(d2.Nets) != len(d.Nets) {
		t.Error("round trip lost modules or nets")
	}
	for _, n := range d.Nets {
		n2 := d2.Net(n.Name)
		if n2 == nil || n2.Degree() != n.Degree() {
			t.Errorf("net %q degree changed", n.Name)
		}
	}
}

func TestLoadWithoutIOFile(t *testing.T) {
	src := specSource{
		"G": {Name: "G", W: 3, H: 3, Terms: []TermSpec{
			{Name: "A", Type: In, Pos: geom.Pt(0, 1)},
			{Name: "Y", Type: Out, Pos: geom.Pt(3, 1)},
		}},
	}
	d, err := Load("noio", strings.NewReader("m0 G\nm1 G\n"),
		strings.NewReader("w m0 Y\nw m1 A\n"), nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.SysTerms) != 0 {
		t.Error("unexpected system terminals")
	}
}

func TestLoadErrors(t *testing.T) {
	src := specSource{}
	_, err := Load("e", strings.NewReader("m0 MISSING\n"), strings.NewReader(""), nil, src)
	if err == nil {
		t.Error("unknown template accepted")
	}
	_, err = Load("e", strings.NewReader("bad\n"), strings.NewReader(""), nil, src)
	if err == nil {
		t.Error("malformed call record accepted")
	}
	_, err = Load("e", strings.NewReader(""), strings.NewReader("a b\n"), nil, src)
	if err == nil {
		t.Error("malformed net record accepted")
	}
	_, err = Load("e", strings.NewReader(""), strings.NewReader(""),
		strings.NewReader("X sideways\n"), src)
	if err == nil {
		t.Error("malformed io record accepted")
	}
}

func TestParseFilesSkipCommentsAndBlanks(t *testing.T) {
	recs, err := ParseCallFile(strings.NewReader("# comment\n\nm0 G\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0] != (CallRecord{"m0", "G"}) {
		t.Errorf("got %+v", recs)
	}
}

// TestWritersExactText pins the writers' text byte for byte: the
// service hashes it into cache keys. Terminals sort by their full
// label, so module "a-" (label "a-.A") comes before module "a" ("a.Y")
// although "a" < "a-".
func TestWritersExactText(t *testing.T) {
	src := specSource{
		"G": {Name: "G", W: 3, H: 3, Terms: []TermSpec{
			{Name: "A", Type: In, Pos: geom.Pt(0, 1)},
			{Name: "Y", Type: Out, Pos: geom.Pt(3, 1)},
		}},
	}
	d, err := Load("w", strings.NewReader("a G\na- G\n"),
		strings.NewReader("w a Y\nw a- A\nw root X\nv root Z\nv a A\n"),
		strings.NewReader("Z inout\nX out\n"), src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		write func(io.Writer, *Design) error
		want  string
	}{
		{WriteCallFile, "a G\na- G\n"},
		{WriteIOFile, "Z inout\nX out\n"},
		{WriteNetListFile, "v a A\nv root Z\nw a- A\nw a Y\nw root X\n"},
	} {
		var b strings.Builder
		if err := tc.write(&b, d); err != nil {
			t.Fatal(err)
		}
		if b.String() != tc.want {
			t.Errorf("wrote %q, want %q", b.String(), tc.want)
		}
	}
}

// TestParseLongRecords: a record line may run to 1 MiB, and one past
// that is refused.
func TestParseLongRecords(t *testing.T) {
	long := strings.Repeat("m", 200<<10)
	recs, err := ParseCallFile(strings.NewReader("m0 G\n" + long + " G\nm1 G\n"))
	if err != nil || len(recs) != 3 || recs[1].Instance != long {
		t.Fatalf("a 200 KiB record: %d records, %v", len(recs), err)
	}
	if _, err := ParseCallFile(strings.NewReader(strings.Repeat("m", 1<<20) + " G\n")); err == nil {
		t.Error("a record over 1 MiB was accepted")
	}
}

// specSource is a trivial TemplateSource for tests.
type specSource map[string]TemplateSpec

func (s specSource) Template(name string) (TemplateSpec, error) {
	spec, ok := s[name]
	if !ok {
		return TemplateSpec{}, errUnknown(name)
	}
	return spec, nil
}

type errUnknown string

func (e errUnknown) Error() string { return "unknown template " + string(e) }
