// Quinto adds a new module to the library (Appendix B of Koster &
// Stok, EUT 89-E-219).
//
// Usage:
//
//	quinto [-loose] [file]
//
// The input (a file argument or stdin) is an Appendix B module
// description:
//
//	module <MODULE-NAME> <WIDTH> <HEIGHT>
//	<TYPE> <TERM-NAME> <X> <Y>
//
// By default the Appendix B constraint applies: width, height and
// coordinates must be divisible by 10 (the ESCHER grid); -loose accepts
// track-unit coordinates directly. The generated Appendix C template
// representation is written into $USER_LIB/<module-name> (or stdout
// when USER_LIB is unset).
//
// -check validates the new module by driving it through the full
// pipeline: a one-instance design is built with every terminal wired
// to a system contact, then placed and routed via gen.Run. A module
// whose terminals cannot all be reached (overlapping positions, pins
// off the outline) fails here instead of at first use. -trace prints
// the validation run's span tree.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"netart/internal/gen"
	"netart/internal/library"
	"netart/internal/netlist"
	"netart/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quinto:", err)
		os.Exit(1)
	}
}

func run() error {
	loose := flag.Bool("loose", false, "accept track-unit coordinates (skip the divisible-by-10 rule)")
	check := flag.Bool("check", false, "validate the module by placing and routing a one-instance design")
	trace := flag.Bool("trace", false, "with -check: print the validation span tree to stderr")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		return fmt.Errorf("usage: quinto [-loose] [file]")
	}

	spec, err := library.ParseModuleDescription(in, !*loose)
	if err != nil {
		return err
	}

	if *check {
		if err := checkModule(spec, *trace); err != nil {
			return fmt.Errorf("module %s failed validation: %w", spec.Name, err)
		}
		fmt.Fprintf(os.Stderr, "quinto: module %s validated (placed and routed, all %d terminal(s) reachable)\n",
			spec.Name, len(spec.Terms))
	}

	dir := os.Getenv("USER_LIB")
	out := io.Writer(os.Stdout)
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, spec.Name))
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
		fmt.Fprintf(os.Stderr, "quinto: added %s (%dx%d, %d terminals) to %s\n",
			spec.Name, spec.W, spec.H, len(spec.Terms), dir)
	}
	return library.WriteTemplateFile(out, spec, "userlib")
}

// checkModule builds a one-instance design from the new template —
// every terminal wired through its own net to a system contact — and
// runs it through the canonical gen.Run pipeline. Success means the
// module places and every terminal is routable.
func checkModule(spec netlist.TemplateSpec, trace bool) error {
	d := netlist.NewDesign("check-" + spec.Name)
	if _, err := d.AddModule("u1", spec.Name, spec.W, spec.H, spec.Terms); err != nil {
		return err
	}
	for _, t := range spec.Terms {
		if _, err := d.AddSysTerm("p_"+t.Name, netlist.InOut); err != nil {
			return err
		}
		net := "n_" + t.Name
		if err := d.Connect(net, "u1", t.Name); err != nil {
			return err
		}
		if err := d.ConnectSys(net, "p_"+t.Name); err != nil {
			return err
		}
	}

	opts := gen.DefaultOptions()
	if trace {
		opts.Observer = obs.NewObserver(nil, "check")
	}
	rep, err := gen.Run(context.Background(), d, opts)
	if err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, obs.FormatTree(opts.Observer.Snapshot()))
	if n := rep.Unrouted(); n > 0 {
		return fmt.Errorf("%d terminal net(s) unroutable", n)
	}
	return rep.Diagram.Verify()
}
