// Netart is the combined automatic schematic diagram generator: the
// placement and routing phases of Koster & Stok (EUT 89-E-219) run back
// to back, turning an Appendix A network description into a rendered
// schematic.
//
// Usage:
//
//	netart -demo fig61|datapath|life [render flags]
//	netart -table61
//	netart [options] net-list-file call-file [io-file]
//
// Render flags: -ascii (print a character rendering), -svg FILE,
// -esc FILE (ESCHER diagram). Placement knobs match pablo (-p -b -c -e
// -i -s); routing knobs match eureka (-swap, -noclaims, -route-order).
// -trace prints the per-stage span tree (wall time, outcome, stage
// attributes such as partition counts and wavefront expansions) to
// stderr after generation.
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
	"netart/internal/route"
	"netart/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "netart:", err)
		os.Exit(1)
	}
}

func run() error {
	demo := flag.String("demo", "", "built-in workload: fig61, datapath, cpu or life")
	table := flag.Bool("table61", false, "run the full §6 suite and print Table 6.1")
	placer := flag.String("placer", "paper", "placement algorithm: paper, epitaxial, mincut, columns")
	p := flag.Int("p", 7, "maximum modules per partition")
	b := flag.Int("b", 5, "maximum string length per box")
	c := flag.Int("c", 0, "maximum outgoing nets per partition (0 = unlimited)")
	e := flag.Int("e", 0, "extra tracks around each partition")
	i := flag.Int("i", 0, "extra tracks around each box")
	s := flag.Int("s", 0, "extra tracks around each module")
	swap := flag.Bool("swap", false, "rank minimum-bend paths by length before crossings")
	noclaims := flag.Bool("noclaims", false, "disable the claimpoint extension")
	routeOrder := flag.String("route-order", "shortest",
		"net routing order: shortest (default, §7 extension) or design (the paper's order)")
	ripup := flag.Bool("ripup", false, "rip-up-and-reroute pass for failed nets (extension)")
	verify := flag.Bool("verify-routing", false,
		"machine-check the routed geometry against the netlist before rendering")
	trace := flag.Bool("trace", false, "print the per-stage span tree to stderr")
	ascii := flag.Bool("ascii", false, "print an ASCII rendering")
	svg := flag.String("svg", "", "write an SVG rendering to FILE")
	esc := flag.String("esc", "", "write the ESCHER diagram to FILE")
	name := flag.String("name", "design", "design name")
	flag.Parse()

	if *table {
		rows, err := gen.Table61()
		if err != nil {
			return err
		}
		fmt.Print(gen.FormatTable61(rows))
		return nil
	}

	var d *netlist.Design
	switch {
	case *demo == "fig61":
		d = workload.Fig61()
		*p, *b = 6, 6
	case *demo == "datapath":
		d = workload.Datapath16()
	case *demo == "cpu":
		d = workload.CPU()
		*s, *i = 1, 1
	case *demo == "life":
		d = workload.Life27()
		*i, *e, *s = 2, 3, 1
		*p = 5
	case *demo != "":
		return fmt.Errorf("unknown demo %q (fig61, datapath, cpu, life)", *demo)
	default:
		if flag.NArg() < 2 || flag.NArg() > 3 {
			return fmt.Errorf("usage: netart [options] net-list-file call-file [io-file]")
		}
		ioFile := ""
		if flag.NArg() == 3 {
			ioFile = flag.Arg(2)
		}
		var err error
		d, err = cli.LoadDesign(*name, flag.Arg(0), flag.Arg(1), ioFile)
		if err != nil {
			return err
		}
	}

	shortest, err := route.ParseOrder(*routeOrder)
	if err != nil {
		return err
	}
	opts := gen.Options{
		Place: place.Options{
			PartSize: *p, BoxSize: *b, MaxConnections: *c,
			PartSpacing: *e, BoxSpacing: *i, ModSpacing: *s,
		},
		Route: route.Options{
			Claimpoints:        !*noclaims,
			SwapObjective:      *swap,
			OrderShortestFirst: shortest,
			RipUp:              *ripup,
		},
	}
	switch *placer {
	case "paper":
		opts.Placer = gen.PlacePaper
	case "epitaxial":
		opts.Placer = gen.PlaceEpitaxial
	case "mincut":
		opts.Placer = gen.PlaceMinCut
	case "columns":
		opts.Placer = gen.PlaceLogicColumns
	default:
		return fmt.Errorf("unknown placer %q", *placer)
	}

	if *trace {
		opts.Observer = obs.NewObserver(nil, "generate")
	}
	rep, err := gen.Run(context.Background(), d, opts)
	if err != nil {
		return err
	}
	dg := rep.Diagram
	if err := dg.Verify(); err != nil {
		return fmt.Errorf("self check failed: %w", err)
	}
	if *verify && rep.Routing != nil {
		if err := route.VerifyEquivalence(rep.Routing); err != nil {
			return fmt.Errorf("equivalence check failed: %w", err)
		}
		fmt.Fprintln(os.Stderr, "equivalence: wire geometry matches the netlist")
	}
	fmt.Fprintln(os.Stderr, dg.Summary())
	if rep.Trace != nil {
		fmt.Fprint(os.Stderr, obs.FormatTree(rep.Trace))
	}

	if *ascii {
		fmt.Print(dg.ASCII())
	}
	if *svg != "" {
		if err := cli.WriteSVG(*svg, dg); err != nil {
			return err
		}
	}
	if *esc != "" || (!*ascii && *svg == "") {
		if err := cli.WriteDiagram(*esc, dg); err != nil {
			return err
		}
	}
	return nil
}
