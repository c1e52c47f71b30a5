// Eureka adds the unrouted nets to a schematic diagram (Appendix F of
// Koster & Stok, EUT 89-E-219).
//
// Usage:
//
//	eureka [-u] [-d] [-r] [-l] [-s] [-noclaims] [-route-order shortest|design]
//	       [-o out.esc] graphic-file net-list-file [call-file] [io-file]
//
// The graphic file is an ESCHER diagram holding the placement and any
// prerouted nets; the net-list file gives the connection rules
// (Appendix A). When call/io files are omitted, the network is rebuilt
// from the graphic file's instances and contacts against the library.
// Nets already drawn in the graphic file are kept as prerouted
// obstacles; the router adds the missing connections.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"netart/internal/cli"
	"netart/internal/gen"
	"netart/internal/geom"
	"netart/internal/netlist"
	"netart/internal/obs"
	"netart/internal/route"
	"netart/internal/schematic"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "eureka:", err)
		os.Exit(1)
	}
}

func run() error {
	u := flag.Bool("u", false, "fix the upper border at its location")
	d := flag.Bool("d", false, "fix the lower border")
	r := flag.Bool("r", false, "fix the right border")
	l := flag.Bool("l", false, "fix the left border")
	s := flag.Bool("s", false, "rank minimum-bend paths by length before crossings")
	noclaims := flag.Bool("noclaims", false, "disable the claimpoint extension")
	routeOrder := flag.String("route-order", "shortest",
		"net routing order: shortest (default, §7 extension) or design (the paper's order)")
	trace := flag.Bool("trace", false, "print the routing span tree to stderr")
	out := flag.String("o", "", "output file (default stdout)")
	name := flag.String("name", "", "design name (default: graphic file's tname)")
	flag.Parse()

	if flag.NArg() < 2 || flag.NArg() > 4 {
		return fmt.Errorf("usage: eureka [options] graphic-file net-list-file [call-file] [io-file]")
	}
	pre, err := cli.ReadDiagram(flag.Arg(0))
	if err != nil {
		return err
	}
	designName := *name
	if designName == "" {
		designName = pre.Name
	}

	var dsn *netlist.Design
	if flag.NArg() >= 3 {
		ioFile := ""
		if flag.NArg() == 4 {
			ioFile = flag.Arg(3)
		}
		dsn, err = cli.LoadDesign(designName, flag.Arg(1), flag.Arg(2), ioFile)
		if err != nil {
			return err
		}
	} else {
		dsn, err = designFromDiagram(designName, pre, flag.Arg(1))
		if err != nil {
			return err
		}
	}

	pr, err := pre.ApplyPlacement(dsn)
	if err != nil {
		return err
	}
	// Eureka is the routing half of the pipeline: gen.Run with
	// Options.Placement routes over the existing placement (the design
	// argument may be nil — the placement carries it).
	shortest, err := route.ParseOrder(*routeOrder)
	if err != nil {
		return err
	}
	ropts := route.Options{
		Claimpoints:        !*noclaims,
		SwapObjective:      *s,
		OrderShortestFirst: shortest,
		Prerouted:          pre.PreroutedFor(dsn),
	}
	ropts.FixedBorder[geom.Up] = *u
	ropts.FixedBorder[geom.Down] = *d
	ropts.FixedBorder[geom.Right] = *r
	ropts.FixedBorder[geom.Left] = *l

	opts := gen.Options{Route: ropts, Placement: pr}
	if *trace {
		opts.Observer = obs.NewObserver(nil, "route")
	}
	rep, err := gen.Run(context.Background(), nil, opts)
	if err != nil {
		return err
	}
	dg := rep.Diagram
	for _, rn := range rep.Routing.Nets {
		if !rn.OK() {
			fmt.Fprintf(os.Stderr, "eureka: warning: net %q unroutable (%d terminal(s) open)\n",
				rn.Net.Name, len(rn.Failed))
		}
	}
	fmt.Fprintln(os.Stderr, dg.Summary())
	fmt.Fprint(os.Stderr, obs.FormatTree(opts.Observer.Snapshot()))
	if err := dg.Verify(); err != nil {
		return fmt.Errorf("self check failed: %w", err)
	}
	return cli.WriteDiagram(*out, dg)
}

// designFromDiagram rebuilds the network from the graphic file's
// instances (resolved against the library) and contacts, then applies
// the net-list records.
func designFromDiagram(name string, pre *schematic.ESCHERDiagram, netFile string) (*netlist.Design, error) {
	lib, err := cli.UserLibrary()
	if err != nil {
		return nil, err
	}
	dsn := netlist.NewDesign(name)
	for _, inst := range pre.Modules {
		spec, err := lib.Template(inst.Template)
		if err != nil {
			return nil, fmt.Errorf("instance %q: %w", inst.Name, err)
		}
		if _, err := dsn.AddModule(inst.Name, inst.Template, spec.W, spec.H, spec.Terms); err != nil {
			return nil, err
		}
	}
	for _, c := range pre.Contacts {
		if _, err := dsn.AddSysTerm(c.Name, c.Type); err != nil {
			return nil, err
		}
	}
	f, err := os.Open(netFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := netlist.ParseNetListFile(f)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if rec.Instance == netlist.RootInstance {
			err = dsn.ConnectSys(rec.Net, rec.Terminal)
		} else {
			err = dsn.Connect(rec.Net, rec.Instance, rec.Terminal)
		}
		if err != nil {
			return nil, err
		}
	}
	return dsn, nil
}
