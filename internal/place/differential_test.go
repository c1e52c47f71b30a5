package place

import (
	"fmt"
	"math/rand"
	"testing"

	"netart/internal/geom"
	"netart/internal/netlist"
	"netart/internal/workload"
)

// The differential battery holds Place to the map-based reference
// (reference_test.go): identical module positions and orientations,
// system terminal positions, and partition and box order, membership
// and rectangles, over the builtin workloads and seeded random designs
// with added system terminals and pinned modules, across the option
// matrix.

// refCase is one battery input: a seeded random design, extra system
// terminals, pinned modules and an option set.
type refCase struct {
	n         int
	seed      int64
	sys, pins int
	opts      Options
}

// build makes the case's design and fills opts.Fixed.
func (c *refCase) build() (*netlist.Design, Options) {
	d := workload.Random(c.n, c.seed)
	rng := rand.New(rand.NewSource(c.seed*7919 + int64(c.n)))
	types := []netlist.TermType{netlist.In, netlist.Out, netlist.InOut}
	for i := 0; i < c.sys && len(d.Nets) > 0; i++ {
		name := fmt.Sprintf("X%d", i)
		if _, err := d.AddSysTerm(name, types[rng.Intn(len(types))]); err != nil {
			panic(err)
		}
		if err := d.ConnectSys(d.Nets[rng.Intn(len(d.Nets))].Name, name); err != nil {
			panic(err)
		}
	}
	opts := c.opts
	if c.pins > 0 {
		opts.Fixed = map[*netlist.Module]Fixed{}
		for i, k := range rng.Perm(len(d.Modules))[:min(c.pins, len(d.Modules))] {
			opts.Fixed[d.Modules[k]] = Fixed{
				Pos:    geom.Pt(40*i, -60+rng.Intn(20)),
				Orient: geom.Orient(rng.Intn(4)),
			}
		}
	}
	return d, opts
}

// matrixOptions spreads the option matrix (PartSize 1–8, BoxSize 1–6,
// MaxConnections 0/2/5, every spacing 0–3) over case numbers.
func matrixOptions(i int) Options {
	return Options{
		PartSize:       1 + i%8,
		BoxSize:        1 + (i/3)%6,
		MaxConnections: []int{0, 2, 5}[(i/2)%3],
		PartSpacing:    i % 4,
		BoxSpacing:     (i / 4) % 4,
		ModSpacing:     (i / 16) % 4,
	}
}

// checkAgainstReference places d both ways and compares. It returns
// false when the reference itself is invalid (a system terminal on a
// full second ring gets the zero point), which Place fixes.
func checkAgainstReference(t *testing.T, d *netlist.Design, opts Options) bool {
	t.Helper()
	want, exhausted, err := refPlace(d, opts)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	got, err := Place(d, opts)
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	if exhausted || want.Verify() != nil {
		return false
	}
	if diff := resultDiff(want, got); diff != "" {
		t.Fatalf("%s %+v: %s", d.Name, opts, diff)
	}
	for _, m := range d.Modules {
		for o := geom.R0; o < 4; o++ {
			for _, side := range geom.Dirs {
				if a, b := spacing(m, o, side, opts.ModSpacing), refSpacing(m, o, side, opts.ModSpacing); a != b {
					t.Fatalf("spacing(%s, %v, %v) = %d, reference %d", m.Name, o, side, a, b)
				}
			}
		}
	}
	return true
}

func TestPlaceMatchesReferenceWorkloads(t *testing.T) {
	builds := []struct {
		name  string
		build func() *netlist.Design
		opts  Options
	}{
		{"fig61", workload.Fig61, Options{PartSize: 6, BoxSize: 6}},
		{"quickstart", workload.Quickstart, Options{PartSize: 4, BoxSize: 4}},
		{"datapath", workload.Datapath16, Options{PartSize: 7, BoxSize: 5}},
		{"cpu", workload.CPU, Options{PartSize: 7, BoxSize: 5, ModSpacing: 1, BoxSpacing: 1}},
		{"life", workload.Life27, Options{PartSize: 5, BoxSize: 5, ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3}},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			variants := []Options{b.opts, {}, {PartSize: 1, BoxSize: 6, MaxConnections: 2}}
			for i := 0; i < 8; i++ {
				variants = append(variants, matrixOptions(7*i+len(b.name)))
			}
			if testing.Short() && b.name == "life" {
				variants = variants[:1]
			}
			for _, opts := range variants {
				d := b.build()
				checkAgainstReference(t, d, opts)
				// The same options with the first module pinned (-g).
				opts.Fixed = map[*netlist.Module]Fixed{d.Modules[0]: {Pos: geom.Pt(0, -30)}}
				checkAgainstReference(t, d, opts)
			}
		})
	}
}

func TestPlaceMatchesReferenceRandom(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	checked, skipped, i := 0, 0, 0
	for n := 5; n <= 120; n += 5 {
		for seed := int64(0); seed < seeds; seed++ {
			for k := 0; k < 2; k++ {
				c := refCase{n: n, seed: seed, sys: (i * 5) % 13, pins: (i / 3) % 4, opts: matrixOptions(i)}
				i++
				d, opts := c.build()
				if checkAgainstReference(t, d, opts) {
					checked++
				} else {
					skipped++
				}
			}
		}
	}
	t.Logf("%d designs identical to the reference, %d skipped (invalid reference)", checked, skipped)
	if checked < 10*skipped {
		t.Errorf("only %d of %d designs were checked", checked, checked+skipped)
	}
}

// FuzzPlaceReference maps fuzz input onto the battery's parameters:
// design size and seed, extra system terminals, pinned modules and the
// option matrix.
func FuzzPlaceReference(f *testing.F) {
	f.Add(uint8(20), int64(1), uint8(3), uint8(0), uint16(0))
	f.Add(uint8(60), int64(7), uint8(12), uint8(2), uint16(77))
	f.Add(uint8(5), int64(3), uint8(0), uint8(1), uint16(401))
	f.Fuzz(func(t *testing.T, n uint8, seed int64, sys, pins uint8, opt uint16) {
		c := refCase{n: 5 + int(n)%116, seed: seed, sys: int(sys) % 13, pins: int(pins) % 4,
			opts: matrixOptions(int(opt))}
		d, opts := c.build()
		checkAgainstReference(t, d, opts)
	})
}

// TestOriginSearchMatchesRingSearch compares the free-origin search
// with the exact ring search on random rectangle sets, targets inside
// and around them, and spacings from -1 to 3.
func TestOriginSearchMatchesRingSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s originSearch
	for iter := 0; iter < 20000; iter++ {
		var placed []geom.Rect
		for k := rng.Intn(8); k >= 0; k-- {
			min := geom.Pt(rng.Intn(30)-15, rng.Intn(30)-15)
			placed = append(placed, geom.Rect{Min: min, Max: min.Add(geom.Pt(rng.Intn(9), rng.Intn(9)))})
		}
		target := geom.Pt(rng.Intn(40)-20, rng.Intn(40)-20)
		size := geom.Pt(rng.Intn(8), rng.Intn(8))
		spacing := rng.Intn(5) - 1
		want := refBestFreeOrigin(target, size, placed, spacing)
		if got := s.best(target, size, placed, spacing); got != want {
			t.Fatalf("target %v size %v spacing %d placed %v: got %v, ring search %v",
				target, size, spacing, placed, got, want)
		}
	}
}
