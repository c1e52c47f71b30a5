// Package partition implements the first placement step of Koster & Stok
// (§4.6.3): decomposing the set of modules into functional partitions by
// repeatedly selecting a seed module and growing a cluster around it
// until the partition size or external connection limits are exceeded.
package partition

import (
	"math"

	"netart/internal/netlist"
)

// Config bounds the clustering, mirroring the PABLO options of
// Appendix E.
type Config struct {
	// MaxSize is the maximum number of modules per partition (-p).
	// Values < 1 are treated as 1, the Appendix E default, which yields
	// one partition per module (figure 6.2).
	MaxSize int
	// MaxConnections limits the number of distinct nets leaving a
	// partition while it grows (-c). Zero or negative means unlimited
	// (the Appendix E default, "infimum").
	MaxConnections int
}

func (c Config) maxSize() int {
	if c.MaxSize < 1 {
		return 1
	}
	return c.MaxSize
}

func (c Config) maxConn() int {
	if c.MaxConnections <= 0 {
		return math.MaxInt
	}
	return c.MaxConnections
}

// Part is one functional partition: an ordered set of modules. Order is
// the order of inclusion, which later steps use for determinism.
type Part struct {
	Modules []*netlist.Module
}

// Contains reports whether m belongs to the partition.
func (p *Part) Contains(m *netlist.Module) bool {
	for _, x := range p.Modules {
		if x == m {
			return true
		}
	}
	return false
}

// Set returns the partition's modules as a set.
func (p *Part) Set() map[*netlist.Module]bool {
	s := make(map[*netlist.Module]bool, len(p.Modules))
	for _, m := range p.Modules {
		s[m] = true
	}
	return s
}

// Partition decomposes all modules of d into partitions (the paper's
// PARTITIONING procedure). The result is a true partition of the module
// set: disjoint and covering.
func Partition(d *netlist.Design, cfg Config) []*Part {
	return PartitionSubset(netlist.NewIndex(d), d.Modules, cfg)
}

// Module states during partitioning. Modules outside the subset stay
// outside.
const (
	outside int8 = iota
	free         // not yet in any partition
	growing      // in the partition being formed
	taken        // in a finished partition
)

// counter keeps, per net, how many module terminals sit on modules in
// each state, and how many design nets leave the growing partition.
// Every count changes only when a module changes state.
type counter struct {
	ix    *netlist.Index
	state []int8
	terms [taken + 1][]int32
	ext   int

	pos      []int   // per module: position in the subset order
	frontier []int   // free modules sharing a net with the growing partition
	stamp    []int32 // per module: the partition whose frontier holds it
	parts    int32   // partitions started
}

func (c *counter) move(m int, to int8) {
	from := c.state[m]
	for _, u := range c.ix.ModNets[m] {
		wasExt := c.external(u.Net)
		if from != outside {
			c.terms[from][u.Net] -= u.Terms
		}
		c.terms[to][u.Net] += u.Terms
		if ext := c.external(u.Net); ext != wasExt {
			if ext {
				c.ext++
			} else {
				c.ext--
			}
		}
	}
	c.state[m] = to
}

// external reports whether net n has a terminal inside the
// growing partition and one outside it (another module or a system
// terminal): the paper's "connections" of FORM_PARTITION.
func (c *counter) external(n int32) bool {
	in := c.terms[growing][n]
	return in > 0 && int(in) < len(c.ix.Design.Nets[n].Terms)
}

// PartitionSubset partitions only the given modules of the indexed
// design, used when a preplaced part of the design (PABLO -g) is
// excluded from automatic placement. The subset order determines
// tie-breaking; modules outside the design are ignored.
func PartitionSubset(ix *netlist.Index, modules []*netlist.Module, cfg Config) []*Part {
	n := len(ix.Design.Modules)
	c := &counter{ix: ix, state: make([]int8, n), pos: make([]int, n), stamp: make([]int32, n)}
	for s := free; s <= taken; s++ {
		c.terms[s] = make([]int32, len(ix.Design.Nets))
	}
	order := make([]int, 0, len(modules))
	for _, m := range modules {
		if id, ok := ix.ModID(m); ok && c.state[id] == outside {
			c.move(id, free)
			c.pos[id] = len(order)
			order = append(order, id)
		}
	}
	var parts []*Part
	for left := len(order); left > 0; {
		part := c.formPartition(c.takeSeed(order), left, cfg)
		for _, m := range part {
			c.move(m, taken)
		}
		left -= len(part)
		mods := make([]*netlist.Module, len(part))
		for i, m := range part {
			mods[i] = ix.Design.Modules[m]
		}
		parts = append(parts, &Part{Modules: mods})
	}
	return parts
}

// takeSeed implements TAKE_A_SEED: among the free modules, pick the one
// most heavily connected (by distinct nets) to the other free modules;
// break ties by the fewest connections to already partitioned modules;
// remaining ties resolve to the earliest module in input order.
func (c *counter) takeSeed(order []int) int {
	best, bestFree, bestTaken := -1, -1, 0
	for _, m := range order {
		if c.state[m] != free {
			continue
		}
		toFree, toTaken := 0, 0
		for _, u := range c.ix.ModNets[m] {
			if c.terms[free][u.Net] > u.Terms {
				toFree++
			}
			if c.terms[taken][u.Net] > 0 {
				toTaken++
			}
		}
		if best < 0 || toFree > bestFree || (toFree == bestFree && toTaken < bestTaken) {
			best, bestFree, bestTaken = m, toFree, toTaken
		}
	}
	return best
}

// formPartition implements FORM_PARTITION: grow a cluster from the seed.
// The next module is the free one with the largest number of distinct
// nets to the current partition, ties broken by the fewest nets to
// modules outside it, then by input order. Growth stops when the module
// budget or the external connection budget is exhausted, or no free
// modules remain. left counts the free modules, seed included.
func (c *counter) formPartition(seed, left int, cfg Config) []int {
	c.parts++
	c.frontier = c.frontier[:0]
	part := []int{c.join(seed)}
	maxSize, maxConn := cfg.maxSize(), cfg.maxConn()
	for len(part) < left && len(part) < maxSize && c.ext < maxConn {
		// Only frontier modules have a net to the partition; when none
		// is free, every free module has zero.
		best, bestIn, bestOut := -1, 0, 0
		live := c.frontier[:0]
		for _, m := range c.frontier {
			if c.state[m] != free {
				continue
			}
			live = append(live, m)
			toIn, toOut := 0, 0
			for _, u := range c.ix.ModNets[m] {
				in := c.terms[growing][u.Net]
				if in > 0 {
					toIn++
				}
				if c.ix.ModTerms[u.Net]-in > u.Terms {
					toOut++
				}
			}
			if best < 0 || toIn > bestIn || (toIn == bestIn &&
				(toOut < bestOut || toOut == bestOut && c.pos[m] < c.pos[best])) {
				best, bestIn, bestOut = m, toIn, toOut
			}
		}
		c.frontier = live
		// Refinement over the literal paper loop: once no free module
		// touches the partition any more, absorbing unrelated modules
		// would only destroy the functional grouping; start a new seed
		// instead. (The paper's networks are connected, so its formal
		// loop never hits this case.)
		if best < 0 {
			break
		}
		part = append(part, c.join(best))
	}
	return part
}

// join moves free module m into the growing partition and adds the
// free modules on its nets to the frontier.
func (c *counter) join(m int) int {
	c.move(m, growing)
	for _, u := range c.ix.ModNets[m] {
		for _, v := range c.ix.NetMods[u.Net] {
			if v >= 0 && c.state[v] == free && c.stamp[v] != c.parts {
				c.stamp[v] = c.parts
				c.frontier = append(c.frontier, int(v))
			}
		}
	}
	return m
}

// NetsBetweenParts counts distinct nets with a terminal in a and a
// terminal in b.
func NetsBetweenParts(d *netlist.Design, a, b *Part) int {
	as, bs := a.Set(), b.Set()
	count := 0
	for _, n := range d.Nets {
		inA, inB := false, false
		for _, t := range n.Terms {
			if t.Module == nil {
				continue
			}
			if as[t.Module] {
				inA = true
			}
			if bs[t.Module] {
				inB = true
			}
		}
		if inA && inB {
			count++
		}
	}
	return count
}
