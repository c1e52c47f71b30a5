// Package netlist defines the network model consumed by the schematic
// diagram generator: modules (subsystems) carrying subsystem terminals,
// nets interconnecting terminals, and system terminals on the border of
// the diagram. It corresponds to the design nine-tuple of §4.6.2 of
// Koster & Stok (EUT 89-E-219):
//
//	(M, N, ST, T, terms, type, position-terminal, net, size)
//
// plus readers and writers for the net-list description of Appendix A.
package netlist

import (
	"fmt"
	"sort"

	"netart/internal/geom"
)

// TermType is the electrical direction of a terminal: in, out or inout.
type TermType int

// The three terminal types of the paper.
const (
	In TermType = iota
	Out
	InOut
)

// String implements fmt.Stringer with the Appendix A keywords.
func (t TermType) String() string {
	switch t {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	default:
		return fmt.Sprintf("TermType(%d)", int(t))
	}
}

// ParseTermType parses the Appendix A keywords "in", "out" and "inout".
func ParseTermType(s string) (TermType, error) {
	switch s {
	case "in":
		return In, nil
	case "out":
		return Out, nil
	case "inout":
		return InOut, nil
	default:
		return 0, fmt.Errorf("netlist: unknown terminal type %q", s)
	}
}

// CanDrive reports whether a terminal of type t may act as a signal
// source (out or inout).
func (t TermType) CanDrive() bool { return t == Out || t == InOut }

// CanSink reports whether a terminal of type t may act as a signal
// consumer (in or inout).
func (t TermType) CanSink() bool { return t == In || t == InOut }

// Terminal is a connection point. A subsystem terminal belongs to a
// module and Pos is relative to the module's lower-left corner in the
// library orientation; a system terminal has Module == nil and its Pos
// is assigned by terminal placement.
type Terminal struct {
	Name   string
	Type   TermType
	Pos    geom.Point
	Module *Module // nil for system terminals
	Net    *Net    // nil while unconnected
}

// IsSystem reports whether t is a system terminal.
func (t *Terminal) IsSystem() bool { return t.Module == nil }

// Side returns the module side the subsystem terminal sits on, following
// the side() function of §4.6.2: x=0 is left, x=w is right, y=h is up,
// y=0 is down (corners resolve in that order, matching the paper's
// guard ordering which tests left and right with inclusive y ranges).
func (t *Terminal) Side() (geom.Dir, error) {
	if t.Module == nil {
		return 0, fmt.Errorf("netlist: system terminal %q has no side", t.Name)
	}
	w, h := t.Module.W, t.Module.H
	switch {
	case t.Pos.X == 0 && t.Pos.Y >= 0 && t.Pos.Y <= h:
		return geom.Left, nil
	case t.Pos.X == w && t.Pos.Y >= 0 && t.Pos.Y <= h:
		return geom.Right, nil
	case t.Pos.Y == h && t.Pos.X > 0 && t.Pos.X < w:
		return geom.Up, nil
	case t.Pos.Y == 0 && t.Pos.X > 0 && t.Pos.X < w:
		return geom.Down, nil
	default:
		return 0, fmt.Errorf("netlist: terminal %q at %v not on boundary of %dx%d module %q",
			t.Name, t.Pos, w, h, t.Module.Name)
	}
}

// Label returns a human readable "module.terminal" or "root.terminal"
// identifier.
func (t *Terminal) Label() string {
	if t.Module == nil {
		return "root." + t.Name
	}
	return t.Module.Name + "." + t.Name
}

// appendLabel appends t's Label to dst.
func (t *Terminal) appendLabel(dst []byte) []byte {
	if t.Module == nil {
		dst = append(dst, RootInstance...)
	} else {
		dst = append(dst, t.Module.Name...)
	}
	return append(append(dst, '.'), t.Name...)
}

// Module is a subsystem instance: a rectangular symbol of size W x H
// carrying subsystem terminals on its boundary.
type Module struct {
	Name     string // instance name
	Template string // library template name (may be empty for ad-hoc modules)
	W, H     int
	Terms    []*Terminal
}

// Term returns the terminal with the given name, or nil.
func (m *Module) Term(name string) *Terminal {
	for _, t := range m.Terms {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Size returns the module dimensions as a point.
func (m *Module) Size() geom.Point { return geom.Pt(m.W, m.H) }

// Net is a set of terminals that must be interconnected by a single wire
// tree.
type Net struct {
	Name  string
	Terms []*Terminal
}

// Degree returns the number of terminals the net connects.
func (n *Net) Degree() int { return len(n.Terms) }

// Design is the complete network: the paper's nine-tuple. Lookup maps
// are maintained by the builder methods; Modules, Nets and SysTerms keep
// insertion order so generation is deterministic.
type Design struct {
	Name     string
	Modules  []*Module
	Nets     []*Net
	SysTerms []*Terminal

	modByName map[string]*Module
	netByName map[string]*Net
	sysByName map[string]*Terminal
}

// NewDesign returns an empty design with the given name.
func NewDesign(name string) *Design {
	return &Design{
		Name:      name,
		modByName: map[string]*Module{},
		netByName: map[string]*Net{},
		sysByName: map[string]*Terminal{},
	}
}

// Module returns the module with the given instance name, or nil.
func (d *Design) Module(name string) *Module { return d.modByName[name] }

// Net returns the net with the given name, or nil.
func (d *Design) Net(name string) *Net { return d.netByName[name] }

// SysTerm returns the system terminal with the given name, or nil.
func (d *Design) SysTerm(name string) *Terminal { return d.sysByName[name] }

// AddModule adds a module instance with explicit geometry. Terminal specs
// give name, type and boundary position. It fails on duplicate instance
// names, duplicate terminal names, or off-boundary terminals.
func (d *Design) AddModule(name, template string, w, h int, terms []TermSpec) (*Module, error) {
	if name == "" {
		return nil, fmt.Errorf("netlist: empty module name")
	}
	if _, dup := d.modByName[name]; dup {
		return nil, fmt.Errorf("netlist: duplicate module %q", name)
	}
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("netlist: module %q has non-positive size %dx%d", name, w, h)
	}
	m := &Module{Name: name, Template: template, W: w, H: h}
	seen := map[string]bool{}
	for _, ts := range terms {
		if seen[ts.Name] {
			return nil, fmt.Errorf("netlist: module %q has duplicate terminal %q", name, ts.Name)
		}
		seen[ts.Name] = true
		t := &Terminal{Name: ts.Name, Type: ts.Type, Pos: ts.Pos, Module: m}
		if _, err := t.Side(); err != nil {
			return nil, err
		}
		m.Terms = append(m.Terms, t)
	}
	d.Modules = append(d.Modules, m)
	d.modByName[name] = m
	return m, nil
}

// TermSpec describes one terminal when building a module.
type TermSpec struct {
	Name string
	Type TermType
	Pos  geom.Point
}

// AddSysTerm adds a system terminal of the given type. Its position is
// determined later by terminal placement.
func (d *Design) AddSysTerm(name string, typ TermType) (*Terminal, error) {
	if name == "" {
		return nil, fmt.Errorf("netlist: empty system terminal name")
	}
	if _, dup := d.sysByName[name]; dup {
		return nil, fmt.Errorf("netlist: duplicate system terminal %q", name)
	}
	t := &Terminal{Name: name, Type: typ}
	d.SysTerms = append(d.SysTerms, t)
	d.sysByName[name] = t
	return t, nil
}

// ensureNet returns the net with the given name, creating it if needed.
func (d *Design) ensureNet(name string) *Net {
	if n, ok := d.netByName[name]; ok {
		return n
	}
	n := &Net{Name: name}
	d.Nets = append(d.Nets, n)
	d.netByName[name] = n
	return n
}

// Connect attaches the named subsystem terminal to the named net,
// creating the net on first use (the Appendix A net-list record
// <NET> <INSTANCE> <TERMINAL>).
func (d *Design) Connect(netName, modName, termName string) error {
	m := d.modByName[modName]
	if m == nil {
		return fmt.Errorf("netlist: net %q references unknown module %q", netName, modName)
	}
	t := m.Term(termName)
	if t == nil {
		return fmt.Errorf("netlist: net %q references unknown terminal %q.%q", netName, modName, termName)
	}
	return d.attach(netName, t)
}

// ConnectSys attaches the named system terminal to the named net (the
// Appendix A record with instance "root").
func (d *Design) ConnectSys(netName, termName string) error {
	t := d.sysByName[termName]
	if t == nil {
		return fmt.Errorf("netlist: net %q references unknown system terminal %q", netName, termName)
	}
	return d.attach(netName, t)
}

func (d *Design) attach(netName string, t *Terminal) error {
	if t.Net != nil {
		if t.Net.Name == netName {
			return nil // duplicate record; harmless
		}
		return fmt.Errorf("netlist: terminal %s already on net %q, cannot join %q",
			t.Label(), t.Net.Name, netName)
	}
	n := d.ensureNet(netName)
	n.Terms = append(n.Terms, t)
	t.Net = n
	return nil
}

// NetsBetween returns the number of distinct nets that connect module m
// with at least one module of set (excluding m itself). This is the
// connection count "( N n: n in N : (E m': ... (m,m')connected(n) ) )"
// used throughout §4.6.3.
func NetsBetween(m *Module, set map[*Module]bool) int {
	// A net counts once even if m touches it through several terminals.
	seen := map[*Net]bool{}
	count := 0
	for _, t := range m.Terms {
		n := t.Net
		if n == nil || seen[n] {
			continue
		}
		seen[n] = true
		for _, u := range n.Terms {
			if u.Module != nil && u.Module != m && set[u.Module] {
				count++
				break
			}
		}
	}
	return count
}

// Connected reports whether modules a and b share at least one net, the
// connected() relation of §4.6.2.
func Connected(a, b *Module) bool {
	for _, t := range a.Terms {
		if t.Net == nil {
			continue
		}
		for _, u := range t.Net.Terms {
			if u.Module == b {
				return true
			}
		}
	}
	return false
}

// ModuleSet returns the design's modules as a set, convenient for the
// connectivity helpers.
func (d *Design) ModuleSet() map[*Module]bool {
	s := make(map[*Module]bool, len(d.Modules))
	for _, m := range d.Modules {
		s[m] = true
	}
	return s
}

// Validate checks structural consistency of the design: every net has at
// least min terminals, every terminal position is on its module
// boundary, and names are consistent with the lookup maps.
func (d *Design) Validate(minNetDegree int) error {
	for _, m := range d.Modules {
		for _, t := range m.Terms {
			if _, err := t.Side(); err != nil {
				return err
			}
		}
	}
	for _, n := range d.Nets {
		if n.Degree() < minNetDegree {
			return fmt.Errorf("netlist: net %q connects %d terminal(s), want >= %d",
				n.Name, n.Degree(), minNetDegree)
		}
		for _, t := range n.Terms {
			if t.Net != n {
				return fmt.Errorf("netlist: terminal %s back-pointer mismatch on net %q",
					t.Label(), n.Name)
			}
		}
	}
	return nil
}

// Stats summarizes a design for reporting: module, net, terminal counts
// and the multipoint-net count.
type Stats struct {
	Modules    int
	Nets       int
	SysTerms   int
	Terminals  int
	Multipoint int // nets with more than two terminals
}

// Stats computes summary statistics.
func (d *Design) Stats() Stats {
	s := Stats{Modules: len(d.Modules), Nets: len(d.Nets), SysTerms: len(d.SysTerms)}
	for _, m := range d.Modules {
		s.Terminals += len(m.Terms)
	}
	s.Terminals += len(d.SysTerms)
	for _, n := range d.Nets {
		if n.Degree() > 2 {
			s.Multipoint++
		}
	}
	return s
}

// SortedNets returns the nets ordered by name; generation code iterates
// this for deterministic output.
func (d *Design) SortedNets() []*Net {
	out := append([]*Net(nil), d.Nets...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
