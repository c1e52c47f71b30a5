package schematic

import (
	"fmt"
	"io"
	"strings"

	"netart/internal/geom"
	"netart/internal/route"
)

// ASCII renders the diagram as a character grid: module outlines as
// '#' with the instance name inside, wires as '-', '|', corners '+',
// crossings 'x', subsystem terminals 'o' and system terminals 'O'.
// Grids larger than maxASCII columns or rows degrade to a summary line
// instead of an unreadable wall of text.
func (d *Diagram) ASCII() string {
	const maxASCII = 400
	b := d.Placement.Bounds
	minP := b.Min.Sub(geom.Pt(2, 2))
	maxP := b.Max.Add(geom.Pt(2, 2))
	if d.Routing != nil {
		minP = d.Routing.Plane.Bounds.Min
		maxP = d.Routing.Plane.Bounds.Max
	}
	w := maxP.X - minP.X + 1
	h := maxP.Y - minP.Y + 1
	if w <= 0 || h <= 0 || w > maxASCII || h > maxASCII {
		return fmt.Sprintf("[diagram %dx%d too large for ASCII rendering]\n", w, h)
	}
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", w))
	}
	set := func(p geom.Point, c byte) {
		x, y := p.X-minP.X, p.Y-minP.Y
		if x < 0 || x >= w || y < 0 || y >= h {
			return
		}
		grid[h-1-y][x] = c // y grows upward, rows print top-down
	}
	at := func(p geom.Point) byte {
		x, y := p.X-minP.X, p.Y-minP.Y
		if x < 0 || x >= w || y < 0 || y >= h {
			return ' '
		}
		return grid[h-1-y][x]
	}

	// Wires first so modules overwrite their own outline cleanly.
	if d.Routing != nil {
		for _, rn := range d.Routing.Nets {
			for _, s := range rn.Segments {
				c := byte('-')
				if !s.Horizontal() {
					c = '|'
				}
				for _, p := range s.Points() {
					prev := at(p)
					switch {
					case prev == '-' && c == '|', prev == '|' && c == '-':
						set(p, 'x')
					case prev == '+' || prev == 'x':
						// keep
					default:
						set(p, c)
					}
				}
			}
			g := buildGraph(rn.Segments)
			for p, ns := range g.adj {
				if len(ns) >= 3 {
					set(p, '*')
					continue
				}
				if len(ns) == 2 {
					d0, d1 := ns[0].Sub(p), ns[1].Sub(p)
					if d0.X*d1.X+d0.Y*d1.Y == 0 {
						set(p, '+')
					}
				}
			}
		}
	}

	// Modules.
	for _, m := range d.Design.Modules {
		pm, ok := d.Placement.Mods[m]
		if !ok {
			continue
		}
		r := pm.Rect()
		for x := r.Min.X; x <= r.Max.X; x++ {
			for y := r.Min.Y; y <= r.Max.Y; y++ {
				edge := x == r.Min.X || x == r.Max.X || y == r.Min.Y || y == r.Max.Y
				if edge {
					set(geom.Pt(x, y), '#')
				} else {
					set(geom.Pt(x, y), ' ')
				}
			}
		}
		// Instance name inside (clipped).
		name := m.Name
		nx, ny := r.Min.X+1, (r.Min.Y+r.Max.Y)/2
		for i := 0; i < len(name) && nx+i < r.Max.X; i++ {
			set(geom.Pt(nx+i, ny), name[i])
		}
		// Terminals on the outline.
		for _, t := range m.Terms {
			if t.Net != nil {
				set(pm.TermPos(t), 'o')
			}
		}
	}
	for _, st := range d.Design.SysTerms {
		if p, ok := d.Placement.SysPos[st]; ok {
			set(p, 'O')
		}
	}

	var sb strings.Builder
	for _, row := range grid {
		sb.Write(row)
		sb.WriteByte('\n')
	}
	if d.Degraded != nil {
		sb.WriteString(d.Degraded.Block())
	}
	return sb.String()
}

// svgPalette cycles distinguishable wire colors.
var svgPalette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
	"#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
}

// WriteSVG renders the diagram as a standalone SVG document.
func (d *Diagram) WriteSVG(w io.Writer) error {
	const scale = 10
	b := d.Placement.Bounds
	minP := b.Min.Sub(geom.Pt(3, 3))
	maxP := b.Max.Add(geom.Pt(3, 3))
	if d.Routing != nil {
		minP = d.Routing.Plane.Bounds.Min.Sub(geom.Pt(1, 1))
		maxP = d.Routing.Plane.Bounds.Max.Add(geom.Pt(1, 1))
	}
	width := (maxP.X - minP.X + 1) * scale
	height := (maxP.Y - minP.Y + 1) * scale
	tx := func(p geom.Point) (int, int) {
		return (p.X - minP.X) * scale, (maxP.Y - p.Y) * scale
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	sb.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")

	// Wires.
	if d.Routing != nil {
		g := newWireGrid(d.Routing.Nets, false)
		for i, rn := range d.Routing.Nets {
			color := svgPalette[i%len(svgPalette)]
			for _, s := range rn.Segments {
				x1, y1 := tx(s.A)
				x2, y2 := tx(s.B)
				fmt.Fprintf(&sb,
					`<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"><title>%s</title></line>`+"\n",
					x1, y1, x2, y2, color, escapeXML(rn.Net.Name))
			}
			g.addNet(rn.Segments, 0)
			for _, p := range g.branchPoints() {
				x, y := tx(p)
				fmt.Fprintf(&sb, `<circle cx="%d" cy="%d" r="3" fill="%s"/>`+"\n", x, y, color)
			}
		}
	}

	// Modules.
	for _, m := range d.Design.Modules {
		pm, ok := d.Placement.Mods[m]
		if !ok {
			continue
		}
		r := pm.Rect()
		x, y := tx(geom.Pt(r.Min.X, r.Max.Y))
		fmt.Fprintf(&sb,
			`<rect x="%d" y="%d" width="%d" height="%d" fill="#f5f0e8" stroke="black" stroke-width="2"/>`+"\n",
			x, y, r.Dx()*scale, r.Dy()*scale)
		cx, cy := tx(r.Center())
		fmt.Fprintf(&sb,
			`<text x="%d" y="%d" font-size="%d" text-anchor="middle" font-family="monospace">%s</text>`+"\n",
			cx, cy+scale/3, scale, escapeXML(m.Name))
		for _, t := range m.Terms {
			if t.Net == nil {
				continue
			}
			px, py := tx(pm.TermPos(t))
			fmt.Fprintf(&sb, `<circle cx="%d" cy="%d" r="2.5" fill="black"><title>%s</title></circle>`+"\n",
				px, py, escapeXML(t.Label()))
		}
	}

	// System terminals.
	for _, st := range d.Design.SysTerms {
		p, ok := d.Placement.SysPos[st]
		if !ok {
			continue
		}
		x, y := tx(p)
		fmt.Fprintf(&sb,
			`<rect x="%d" y="%d" width="%d" height="%d" fill="#404040"><title>%s</title></rect>`+"\n",
			x-scale/4, y-scale/4, scale/2, scale/2, escapeXML(st.Name))
		fmt.Fprintf(&sb,
			`<text x="%d" y="%d" font-size="%d" text-anchor="middle" font-family="monospace">%s</text>`+"\n",
			x, y-scale/2, scale*3/4, escapeXML(st.Name))
	}

	// Degradation diagnostic: a machine-findable comment plus a visible
	// banner so a partial artwork is never mistaken for a clean one.
	if d.Degraded != nil {
		fmt.Fprintf(&sb, "<!-- %s -->\n", escapeXML(strings.TrimRight(d.Degraded.Block(), "\n")))
		fmt.Fprintf(&sb,
			`<text x="4" y="%d" font-size="%d" fill="#b00020" font-family="monospace">DEGRADED: %s</text>`+"\n",
			height-scale/2, scale, escapeXML(d.Degraded.Reason))
	}

	sb.WriteString("</svg>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// xmlEscaper is shared by every render: a strings.Replacer is safe for
// concurrent use, and building one costs more than most replacements.
var xmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func escapeXML(s string) string { return xmlEscaper.Replace(s) }

// Summary returns a one-line description of the diagram suitable for
// CLI output and experiment logs.
func (d *Diagram) Summary() string {
	m := d.Metrics()
	routed := ""
	if d.Routing != nil {
		routed = fmt.Sprintf(" wire=%d bends=%d cross=%d branch=%d unrouted=%d",
			m.WireLength, m.Bends, m.Crossings, m.Branches, m.Unrouted)
	}
	s := fmt.Sprintf("%s: %d modules %d nets area=%d flow=%.2f%s",
		d.Design.Name, len(d.Design.Modules), len(d.Design.Nets), m.Area, m.FlowRight, routed)
	if d.Degraded != nil {
		s += "\n" + strings.TrimRight(d.Degraded.Block(), "\n")
	}
	return s
}

// SegmentsOf is a convenience accessor used by renders and tools.
func (d *Diagram) SegmentsOf(netName string) []route.Segment {
	if d.Routing == nil {
		return nil
	}
	n := d.Design.Net(netName)
	if n == nil {
		return nil
	}
	rn := d.Routing.Net(n)
	if rn == nil {
		return nil
	}
	return rn.Segments
}
