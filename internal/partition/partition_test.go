package partition

import (
	"testing"
	"testing/quick"

	"netart/internal/geom"
	"netart/internal/netlist"
	"netart/internal/workload"
)

// checkIsPartition verifies the defining property: disjoint and covering.
func checkIsPartition(t *testing.T, d *netlist.Design, parts []*Part, modules []*netlist.Module) {
	t.Helper()
	seen := map[*netlist.Module]int{}
	for pi, p := range parts {
		if len(p.Modules) == 0 {
			t.Errorf("partition %d is empty", pi)
		}
		for _, m := range p.Modules {
			if prev, dup := seen[m]; dup {
				t.Errorf("module %s in partitions %d and %d", m.Name, prev, pi)
			}
			seen[m] = pi
		}
	}
	for _, m := range modules {
		if _, ok := seen[m]; !ok {
			t.Errorf("module %s not in any partition", m.Name)
		}
	}
	if len(seen) != len(modules) {
		t.Errorf("partitions contain %d modules, want %d", len(seen), len(modules))
	}
}

func TestPartitionSizeOne(t *testing.T) {
	// -p 1, the Appendix E default: every module its own partition
	// (figure 6.2's "typical clustering of the modules").
	d := workload.Datapath16()
	parts := Partition(d, Config{MaxSize: 1})
	if len(parts) != 16 {
		t.Fatalf("got %d partitions, want 16", len(parts))
	}
	checkIsPartition(t, d, parts, d.Modules)
	for _, p := range parts {
		if len(p.Modules) != 1 {
			t.Errorf("partition size %d with MaxSize 1", len(p.Modules))
		}
	}
}

func TestPartitionSizeFiveFormsFunctionalGroups(t *testing.T) {
	// -p 5 on the datapath: figure 6.3 shows functional parts of at
	// most five modules.
	d := workload.Datapath16()
	parts := Partition(d, Config{MaxSize: 5})
	checkIsPartition(t, d, parts, d.Modules)
	for _, p := range parts {
		if len(p.Modules) > 5 {
			t.Errorf("partition size %d exceeds 5", len(p.Modules))
		}
	}
	// 16 modules with max 5 needs at least 4 partitions.
	if len(parts) < 4 {
		t.Errorf("only %d partitions", len(parts))
	}
	// At least one lane should end up grouped: some partition holds >= 3
	// modules of the same lane (mux/rega/alu/regb/cmp share an index
	// suffix).
	laneGrouped := false
	for _, p := range parts {
		perLane := map[byte]int{}
		for _, m := range p.Modules {
			suffix := m.Name[len(m.Name)-1]
			if suffix >= '0' && suffix <= '2' && m.Name != "ctrl" {
				perLane[suffix]++
			}
		}
		for _, n := range perLane {
			if n >= 3 {
				laneGrouped = true
			}
		}
	}
	if !laneGrouped {
		t.Error("no partition groups a datapath lane; functional clustering failed")
	}
}

func TestSeedIsMostConnected(t *testing.T) {
	// The controller is the most heavily connected module; with one big
	// partition budget it must be chosen as the first seed.
	d := workload.Datapath16()
	parts := Partition(d, Config{MaxSize: 16})
	if parts[0].Modules[0].Name != "ctrl" {
		t.Errorf("first seed = %s, want ctrl", parts[0].Modules[0].Name)
	}
}

func TestMaxConnectionsLimitsGrowth(t *testing.T) {
	d := workload.Datapath16()
	unbounded := Partition(d, Config{MaxSize: 16})
	bounded := Partition(d, Config{MaxSize: 16, MaxConnections: 1})
	if len(bounded) <= len(unbounded) {
		t.Errorf("connection budget did not fragment partitions: %d vs %d",
			len(bounded), len(unbounded))
	}
	checkIsPartition(t, d, bounded, d.Modules)
}

func TestPartitionSubset(t *testing.T) {
	d := workload.Datapath16()
	sub := d.Modules[:8]
	parts := PartitionSubset(netlist.NewIndex(d), sub, Config{MaxSize: 3})
	checkIsPartition(t, d, parts, sub)
	inSub := map[*netlist.Module]bool{}
	for _, m := range sub {
		inSub[m] = true
	}
	for _, p := range parts {
		for _, m := range p.Modules {
			if !inSub[m] {
				t.Errorf("module %s outside subset placed", m.Name)
			}
		}
	}
}

func TestPartitionSubsetDeduplicates(t *testing.T) {
	d := workload.Fig61()
	dup := append(append([]*netlist.Module{}, d.Modules...), d.Modules[0])
	parts := PartitionSubset(netlist.NewIndex(d), dup, Config{MaxSize: 2})
	checkIsPartition(t, d, parts, d.Modules)
}

func TestPartitionEmptyDesign(t *testing.T) {
	d := netlist.NewDesign("empty")
	parts := Partition(d, Config{MaxSize: 4})
	if len(parts) != 0 {
		t.Errorf("empty design produced %d partitions", len(parts))
	}
}

func TestPartitionDisconnectedModulesStayApart(t *testing.T) {
	// Two disconnected pairs must not merge into one partition even
	// with a large size budget (the zero-connectivity refinement).
	d := netlist.NewDesign("disc")
	add := func(name string) {
		_, err := d.AddModule(name, "G", 3, 3, []netlist.TermSpec{
			{Name: "A", Type: netlist.In, Pos: geom.Pt(0, 1)},
			{Name: "Y", Type: netlist.Out, Pos: geom.Pt(3, 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	add("a0")
	add("a1")
	add("b0")
	add("b1")
	connect := func(net, m1, t1, m2, t2 string) {
		if err := d.Connect(net, m1, t1); err != nil {
			t.Fatal(err)
		}
		if err := d.Connect(net, m2, t2); err != nil {
			t.Fatal(err)
		}
	}
	connect("na", "a0", "Y", "a1", "A")
	connect("nb", "b0", "Y", "b1", "A")
	parts := Partition(d, Config{MaxSize: 4})
	if len(parts) != 2 {
		t.Fatalf("got %d partitions, want 2 (one per component)", len(parts))
	}
	for _, p := range parts {
		if len(p.Modules) != 2 {
			t.Errorf("partition size %d, want 2", len(p.Modules))
		}
		prefix := p.Modules[0].Name[0]
		for _, m := range p.Modules {
			if m.Name[0] != prefix {
				t.Errorf("components mixed: %s with %c*", m.Name, prefix)
			}
		}
	}
}

func TestPartitionLife(t *testing.T) {
	d := workload.Life27()
	parts := Partition(d, Config{MaxSize: 7})
	checkIsPartition(t, d, parts, d.Modules)
	for _, p := range parts {
		if len(p.Modules) > 7 {
			t.Errorf("partition size %d", len(p.Modules))
		}
	}
}

func TestPartitionPropertyRandom(t *testing.T) {
	// Property: for any random network and any size budget, the result
	// is a true partition obeying the budget.
	f := func(seed int64, sizeRaw uint8) bool {
		n := 12
		size := 1 + int(sizeRaw)%8
		d := workload.Random(n, seed)
		parts := Partition(d, Config{MaxSize: size})
		seen := map[*netlist.Module]bool{}
		for _, p := range parts {
			if len(p.Modules) == 0 || len(p.Modules) > size {
				return false
			}
			for _, m := range p.Modules {
				if seen[m] {
					return false
				}
				seen[m] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPartDeterminism(t *testing.T) {
	d1 := workload.Datapath16()
	d2 := workload.Datapath16()
	p1 := Partition(d1, Config{MaxSize: 5})
	p2 := Partition(d2, Config{MaxSize: 5})
	if len(p1) != len(p2) {
		t.Fatalf("nondeterministic partition count: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if len(p1[i].Modules) != len(p2[i].Modules) {
			t.Fatalf("partition %d size differs", i)
		}
		for j := range p1[i].Modules {
			if p1[i].Modules[j].Name != p2[i].Modules[j].Name {
				t.Fatalf("partition %d module %d differs: %s vs %s",
					i, j, p1[i].Modules[j].Name, p2[i].Modules[j].Name)
			}
		}
	}
}

func TestPartHelpers(t *testing.T) {
	d := workload.Fig61()
	parts := Partition(d, Config{MaxSize: 6})
	p := parts[0]
	if !p.Contains(p.Modules[0]) {
		t.Error("Contains false for member")
	}
	other := netlist.NewDesign("o")
	m, _ := other.AddModule("x", "", 2, 2, nil)
	if p.Contains(m) {
		t.Error("Contains true for non-member")
	}
	if len(p.Set()) != len(p.Modules) {
		t.Error("Set size mismatch")
	}
}

func TestNetsBetweenParts(t *testing.T) {
	d := workload.Datapath16()
	parts := Partition(d, Config{MaxSize: 5})
	// Between any two partitions the count is symmetric.
	for i := range parts {
		for j := range parts {
			a := NetsBetweenParts(d, parts[i], parts[j])
			b := NetsBetweenParts(d, parts[j], parts[i])
			if a != b {
				t.Errorf("asymmetric NetsBetweenParts: %d vs %d", a, b)
			}
		}
	}
}
