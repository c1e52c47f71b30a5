package netlist

// Index is a position-addressed view of a design's connectivity, for
// the placement steps of §4.6.3–4.6.7, which count shared nets over and
// over. Module m is d.Modules[m] and net n is d.Nets[n]. An Index is
// built once per call in O(terminals) and only read afterwards.
type Index struct {
	Design *Design
	// ModNets[m] lists the distinct nets of module m in terminal order,
	// each with the number of m's terminals on it.
	ModNets [][]NetUse
	// TermNet[m][k] is the net of d.Modules[m].Terms[k], -1 when the
	// terminal is on no net of d.Nets.
	TermNet [][]int32
	// NetMods[n][k] is the module of d.Nets[n].Terms[k], -1 for a
	// system terminal or a module outside d.Modules.
	NetMods [][]int32
	// ModTerms[n] counts the terminals of d.Nets[n] on any module.
	ModTerms []int32

	modID map[*Module]int32
}

// NetUse is one net of a module with the module's terminal count on it.
type NetUse struct {
	Net, Terms int32
}

// NewIndex indexes d.
func NewIndex(d *Design) *Index {
	ix := &Index{
		Design:   d,
		ModNets:  make([][]NetUse, len(d.Modules)),
		TermNet:  make([][]int32, len(d.Modules)),
		NetMods:  make([][]int32, len(d.Nets)),
		ModTerms: make([]int32, len(d.Nets)),
		modID:    make(map[*Module]int32, len(d.Modules)),
	}
	netID := make(map[*Net]int32, len(d.Nets))
	netTerms := 0
	for n, net := range d.Nets {
		netID[net] = int32(n)
		netTerms += len(net.Terms)
	}
	modTerms := 0
	for m, mod := range d.Modules {
		ix.modID[mod] = int32(m)
		modTerms += len(mod.Terms)
	}

	termNet := make([]int32, modTerms)
	uses := make([]NetUse, 0, modTerms)
	for m, mod := range d.Modules {
		tn := termNet[:len(mod.Terms):len(mod.Terms)]
		termNet = termNet[len(mod.Terms):]
		first := len(uses)
		for k, t := range mod.Terms {
			n, ok := netID[t.Net]
			if !ok {
				tn[k] = -1
				continue
			}
			tn[k] = n
			seen := false
			for i := first; i < len(uses); i++ {
				if uses[i].Net == n {
					uses[i].Terms++
					seen = true
					break
				}
			}
			if !seen {
				uses = append(uses, NetUse{Net: n, Terms: 1})
			}
		}
		ix.TermNet[m] = tn
		ix.ModNets[m] = uses[first:len(uses):len(uses)]
	}

	netMods := make([]int32, netTerms)
	for n, net := range d.Nets {
		nm := netMods[:len(net.Terms):len(net.Terms)]
		netMods = netMods[len(net.Terms):]
		for k, t := range net.Terms {
			nm[k] = -1
			if t.Module == nil {
				continue
			}
			ix.ModTerms[n]++
			if m, ok := ix.modID[t.Module]; ok {
				nm[k] = m
			}
		}
		ix.NetMods[n] = nm
	}
	return ix
}

// ModID returns the position of m in d.Modules.
func (ix *Index) ModID(m *Module) (int, bool) {
	id, ok := ix.modID[m]
	return int(id), ok
}
