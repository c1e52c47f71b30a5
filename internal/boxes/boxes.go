// Package boxes implements the box formation step of Koster & Stok
// (§4.6.3, BOX_FORMATION): inside each partition, continuous strings of
// out→in connected modules are peeled off along longest paths rooted at
// designated root modules. The position of a module in its string is its
// level, which enforces left-to-right signal flow during module
// placement.
package boxes

import (
	"netart/internal/netlist"
	"netart/internal/partition"
)

// Box is one string of connected modules. Modules[0] is the root (level
// 1 in the paper's terms); Modules[i] is out→in connected to
// Modules[i+1].
type Box struct {
	Modules []*netlist.Module
}

// Len returns the string length.
func (b *Box) Len() int { return len(b.Modules) }

// Head returns the first (leftmost) module.
func (b *Box) Head() *netlist.Module { return b.Modules[0] }

// Tail returns the last (rightmost) module.
func (b *Box) Tail() *netlist.Module { return b.Modules[len(b.Modules)-1] }

// Config bounds the string search.
type Config struct {
	// MaxBoxSize is the maximum string length (-b). Values < 1 are
	// treated as 1, the Appendix E default, which keeps every module in
	// its own box (figures 6.2 and 6.3).
	MaxBoxSize int
}

func (c Config) maxBox() int {
	if c.MaxBoxSize < 1 {
		return 1
	}
	return c.MaxBoxSize
}

// Form divides every partition into boxes. The returned outer slice is
// parallel to parts.
func Form(d *netlist.Design, parts []*partition.Part, cfg Config) [][]*Box {
	return FormIndexed(netlist.NewIndex(d), parts, cfg)
}

// FormIndexed is Form over a prebuilt index of the design.
func FormIndexed(ix *netlist.Index, parts []*partition.Part, cfg Config) [][]*Box {
	f := newFormer(ix)
	out := make([][]*Box, len(parts))
	for i, p := range parts {
		out[i] = f.formPartition(p, cfg.maxBox())
	}
	return out
}

// former holds the per-call working state of box formation. Modules of
// the partition being boxed are addressed by their position in it.
type former struct {
	ix     *netlist.Index
	local  []int32 // design module -> position in the loaded partition + 1, 0 outside it
	terms  []int32 // per net: terminals on modules of the loaded partition
	sysIn  []bool  // per net: has an in or inout system terminal
	ids    []int   // loaded partition position -> design module
	roots  []bool
	succ   [][]int32 // out→in successors inside the partition, in LONGEST_PATH order
	remain []bool
	path   []int32
	best   []int32
	maxBox int
}

func newFormer(ix *netlist.Index) *former {
	f := &former{
		ix:    ix,
		local: make([]int32, len(ix.Design.Modules)),
		terms: make([]int32, len(ix.Design.Nets)),
		sysIn: make([]bool, len(ix.Design.Nets)),
	}
	for n, net := range ix.Design.Nets {
		for _, t := range net.Terms {
			if t.Module == nil && (t.Type == netlist.In || t.Type == netlist.InOut) {
				f.sysIn[n] = true
			}
		}
	}
	return f
}

// load makes p the current partition: its module positions, roots
// and out→in successor lists.
func (f *former) load(p *partition.Part) {
	for _, m := range f.ids {
		f.local[m] = 0
	}
	f.ids = f.ids[:0]
	for i, mod := range p.Modules {
		m, _ := f.ix.ModID(mod)
		f.ids = append(f.ids, m)
		f.local[m] = int32(i + 1)
		for _, u := range f.ix.ModNets[m] {
			f.terms[u.Net] += u.Terms
		}
	}
	k := len(f.ids)
	f.roots = resize(f.roots, k)
	f.remain = resize(f.remain, k)
	if cap(f.succ) < k {
		f.succ = make([][]int32, k)
	}
	f.succ = f.succ[:k]
	for i, m := range f.ids {
		f.roots[i] = f.isRoot(m)
		f.remain[i] = true
		f.succ[i] = f.successors(m, f.succ[i][:0])
	}
	for _, m := range f.ids {
		for _, u := range f.ix.ModNets[m] {
			f.terms[u.Net] -= u.Terms
		}
	}
}

func resize(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// isRoot implements the CONSTRUCT_ROOTS test: a module may root a
// string if (a) it is connected to a module outside the partition, or
// (b) it is connected by a net to a system terminal of type in or
// inout, or (c) it has exactly one distinct net to other modules.
func (f *former) isRoot(m int) bool {
	degree := 0
	for _, u := range f.ix.ModNets[m] {
		if f.ix.ModTerms[u.Net] > f.terms[u.Net] || f.sysIn[u.Net] {
			return true
		}
		if f.ix.ModTerms[u.Net] > u.Terms {
			degree++
		}
	}
	return degree == 1
}

// successors appends, in deterministic order, the partition modules
// reachable from m over a net that leaves m through an out/inout
// terminal and enters the successor through an in/inout terminal — the
// string connectivity condition of LONGEST_PATH.
func (f *former) successors(m int, out []int32) []int32 {
	mod := f.ix.Design.Modules[m]
	for k, t := range mod.Terms {
		n := f.ix.TermNet[m][k]
		if n < 0 || !t.Type.CanDrive() {
			continue
		}
		for j, u := range f.ix.Design.Nets[n].Terms {
			v := f.ix.NetMods[n][j]
			if v < 0 || int(v) == m || f.local[v] == 0 || !u.Type.CanSink() {
				continue
			}
			s := f.local[v] - 1
			dup := false
			for _, x := range out {
				if x == s {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, s)
			}
		}
	}
	return out
}

// formPartition implements the inner loop of BOX_FORMATION for one
// partition: repeatedly extract the longest path over the remaining
// modules, rooted at a remaining root.
func (f *former) formPartition(p *partition.Part, maxBox int) []*Box {
	f.load(p)
	f.maxBox = maxBox
	var out []*Box
	for left := len(f.ids); left > 0; {
		// Live roots: still unassigned. If none remain (all roots were
		// consumed mid-path or the partition has no roots at all), every
		// remaining module becomes a candidate root; the paper's loop
		// assumes roots never run dry, which does not hold for cyclic or
		// root-free partitions.
		anyRoot := false
		for i := range f.ids {
			if f.remain[i] && f.roots[i] {
				anyRoot = true
				break
			}
		}
		f.best = f.best[:0]
		for i := range f.ids {
			if !f.remain[i] || (anyRoot && !f.roots[i]) {
				continue
			}
			f.path = append(f.path[:0], int32(i))
			f.remain[i] = false
			done := f.longestPath()
			f.remain[i] = true
			if done {
				break
			}
		}
		b := &Box{Modules: make([]*netlist.Module, len(f.best))}
		for j, i := range f.best {
			f.remain[i] = false
			b.Modules[j] = p.Modules[i]
		}
		f.roots[f.best[0]] = false
		left -= len(f.best)
		out = append(out, b)
	}
	return out
}

// longestPath implements LONGEST_PATH: depth-first extension of the
// current path by remaining modules out→in connected to its tail,
// bounded by maxBox. It keeps the first path of maximum length in
// depth-first order, the one the paper's recursion returns, and
// reports true once that path has maxBox modules, since no later path
// can be longer.
func (f *former) longestPath() bool {
	if len(f.path) > len(f.best) {
		f.best = append(f.best[:0], f.path...)
		if len(f.best) >= f.maxBox {
			return true
		}
	}
	if len(f.path) >= f.maxBox {
		return false
	}
	for _, c := range f.succ[f.path[len(f.path)-1]] {
		if !f.remain[c] {
			continue
		}
		f.remain[c] = false
		f.path = append(f.path, c)
		done := f.longestPath()
		f.path = f.path[:len(f.path)-1]
		f.remain[c] = true
		if done {
			return true
		}
	}
	return false
}

// ConstructRoots implements CONSTRUCT_ROOTS for one partition of d; see
// former.isRoot.
func ConstructRoots(d *netlist.Design, p *partition.Part) map[*netlist.Module]bool {
	f := newFormer(netlist.NewIndex(d))
	f.load(p)
	roots := map[*netlist.Module]bool{}
	for i, m := range p.Modules {
		if f.roots[i] {
			roots[m] = true
		}
	}
	return roots
}

// StringNet returns the net and terminal pair that links two successive
// string modules: an out/inout terminal of prev and an in/inout terminal
// of next on a common net. Module placement aligns these terminals. The
// boolean result is false when the modules are not out→in connected
// (which cannot happen for boxes produced by Form).
func StringNet(prev, next *netlist.Module) (tPrev, tNext *netlist.Terminal, ok bool) {
	for _, t := range prev.Terms {
		if t.Net == nil || !t.Type.CanDrive() {
			continue
		}
		for _, u := range t.Net.Terms {
			if u.Module == next && u.Type.CanSink() {
				return t, u, true
			}
		}
	}
	return nil, nil, false
}
