// Pablo places the modules and terminals of a schematic diagram
// (Appendix E of Koster & Stok, EUT 89-E-219).
//
// Usage:
//
//	pablo [-p N] [-b N] [-c N] [-e N] [-i N] [-s N] [-g preplaced.esc]
//	      [-o out.esc] net-list-file call-file [io-file]
//
// The positional files follow the Appendix A formats; templates resolve
// against the builtin library plus any Appendix C files in $USER_LIB.
// The output is an ESCHER-readable diagram (Appendix D) containing the
// placement, written to -o or stdout. With -g, the given diagram's
// instances are pinned and the remaining modules are placed around
// them ("the preplaced part will form a partition on its own").
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"netart/internal/cli"
	"netart/internal/gen"
	"netart/internal/netlist"
	"netart/internal/obs"
	"netart/internal/place"
	"netart/internal/schematic"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pablo:", err)
		os.Exit(1)
	}
}

func run() error {
	p := flag.Int("p", 1, "maximum number of modules per partition")
	b := flag.Int("b", 1, "maximum string length per box")
	c := flag.Int("c", 0, "maximum outgoing nets per partition (0 = unlimited)")
	e := flag.Int("e", 0, "extra tracks around each partition")
	i := flag.Int("i", 0, "extra tracks around each box")
	s := flag.Int("s", 0, "extra tracks around each module")
	g := flag.String("g", "", "ESCHER diagram with a preplaced part to keep fixed")
	trace := flag.Bool("trace", false, "print the placement span tree to stderr")
	out := flag.String("o", "", "output file (default stdout)")
	name := flag.String("name", "design", "design name for the output diagram")
	flag.Parse()

	if flag.NArg() < 2 || flag.NArg() > 3 {
		return fmt.Errorf("usage: pablo [options] net-list-file call-file [io-file]")
	}
	ioFile := ""
	if flag.NArg() == 3 {
		ioFile = flag.Arg(2)
	}
	d, err := cli.LoadDesign(*name, flag.Arg(0), flag.Arg(1), ioFile)
	if err != nil {
		return err
	}

	// Pablo is the placement half of the pipeline: gen.Run with
	// StopAfterPlace runs placement only and leaves Report.Diagram nil.
	opts := gen.Options{
		Place: place.Options{
			PartSize: *p, BoxSize: *b, MaxConnections: *c,
			PartSpacing: *e, BoxSpacing: *i, ModSpacing: *s,
		},
		StopAfterPlace: true,
	}
	if *g != "" {
		pre, err := cli.ReadDiagram(*g)
		if err != nil {
			return err
		}
		opts.Place.Fixed = map[*netlist.Module]place.Fixed{}
		for _, inst := range pre.Modules {
			m := d.Module(inst.Name)
			if m == nil {
				return fmt.Errorf("preplaced instance %q not in the network", inst.Name)
			}
			opts.Place.Fixed[m] = place.Fixed{Pos: inst.Min, Orient: inst.Orient}
		}
	}
	if *trace {
		opts.Observer = obs.NewObserver(nil, "place")
	}

	rep, err := gen.Run(context.Background(), d, opts)
	if err != nil {
		return err
	}
	if err := rep.Placement.Verify(); err != nil {
		return err
	}
	dg := schematic.FromPlacement(rep.Placement)
	fmt.Fprintln(os.Stderr, dg.Summary())
	if rep.Trace != nil {
		fmt.Fprint(os.Stderr, obs.FormatTree(rep.Trace))
	}
	return cli.WriteDiagram(*out, dg)
}
