package netlist_test

import (
	"strings"
	"testing"

	"netart/internal/library"
	"netart/internal/netlist"
)

// FuzzParseDesign drives netlist.Load with arbitrary call/net-list/io
// text resolved against the builtin library. The parser must never
// panic; for inputs it accepts, the design must survive a write →
// re-parse round trip that preserves the module, net, and system
// terminal counts. Appendix A is a whitespace-separated record format,
// so the fuzzer mostly explores field counts, duplicate names, unknown
// templates/terminals, the "root" instance marker, and comment/blank
// handling.
func FuzzParseDesign(f *testing.F) {
	lib := library.Builtin()

	// Seeds: one valid two-gate design, an io-less design, and a few
	// near-miss shapes so the fuzzer starts at the interesting edges.
	f.Add("a INV\nb INV\n", "n1 a Y\nn1 b A\nn2 root SIN\nn2 a A\n", "SIN in\n")
	f.Add("g0 NAND2\n# comment\ng1 DFF\n", "clk root CK\nclk g1 CLK\nd g0 Y\nd g1 D\n", "CK in\n")
	f.Add("x AND2\n", "n x Y\nn x A\n", "")
	f.Add("x NOPE\n", "n x Y\n", "")             // unknown template
	f.Add("x INV\nx INV\n", "n x Y\n", "")       // duplicate instance
	f.Add("x INV\n", "n root T\n", "T sideways") // bad io type
	f.Add("x INV extra\n", "", "")               // wrong field count
	f.Add("", "n root T\n", "T in\nT out\n")     // duplicate system terminal

	f.Fuzz(func(t *testing.T, calls, nets, ios string) {
		var ioR *strings.Reader
		if ios != "" {
			ioR = strings.NewReader(ios)
		}
		d, err := load("fuzz", calls, nets, ioR, lib)
		if err != nil {
			return // rejection is fine; panicking is not
		}

		// Round trip: anything Load accepted must re-serialize into a
		// form Load accepts again, with identical shape.
		var cb, nb, ib strings.Builder
		if err := netlist.WriteCallFile(&cb, d); err != nil {
			t.Fatalf("WriteCallFile: %v", err)
		}
		if err := netlist.WriteNetListFile(&nb, d); err != nil {
			t.Fatalf("WriteNetListFile: %v", err)
		}
		if err := netlist.WriteIOFile(&ib, d); err != nil {
			t.Fatalf("WriteIOFile: %v", err)
		}
		var ioR2 *strings.Reader
		if ib.Len() > 0 {
			ioR2 = strings.NewReader(ib.String())
		}
		d2, err := load("fuzz2", cb.String(), nb.String(), ioR2, lib)
		if err != nil {
			t.Fatalf("round trip rejected:\ncalls:\n%s\nnets:\n%s\nio:\n%s\nerr: %v",
				cb.String(), nb.String(), ib.String(), err)
		}
		if len(d2.Modules) != len(d.Modules) || len(d2.Nets) != len(d.Nets) ||
			len(d2.SysTerms) != len(d.SysTerms) {
			t.Fatalf("round trip changed shape: modules %d→%d nets %d→%d sys %d→%d",
				len(d.Modules), len(d2.Modules), len(d.Nets), len(d2.Nets),
				len(d.SysTerms), len(d2.SysTerms))
		}

		// Validate must classify, never panic, on whatever Load built.
		_ = d.Validate(1)
	})
}

// load adapts strings to netlist.Load's reader interface, passing a
// truly nil io reader when absent (the interface-holding-nil-pointer
// trap is exactly the kind of edge this fuzz target watches).
func load(name, calls, nets string, ioR *strings.Reader, lib *library.Library) (*netlist.Design, error) {
	var r interface {
		Read([]byte) (int, error)
	}
	if ioR != nil {
		r = ioR
	}
	return netlist.Load(name, strings.NewReader(calls), strings.NewReader(nets), r, lib)
}
