package netlist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
)

// This file implements the Appendix A network description: three
// whitespace-separated record files.
//
//	call-file:     <INSTANCE> <TEMPLATE>
//	io-file:       <TERMINAL> <TYPE>            (type: in | out | inout)
//	net-list-file: <NET> <INSTANCE> <TERMINAL>  (instance "root" = system)
//
// Records are variable-length lines; fields are separated by blanks or
// tabs. Blank lines and lines starting with '#' are tolerated (the 1989
// format has no comments, but accepting them costs nothing and makes the
// example files self-describing).

// RootInstance is the instance name that marks a system terminal in a
// net-list record (Appendix A).
const RootInstance = "root"

// TemplateSpec is the geometric description of a module template as the
// loader needs it: size and terminal list. The library package produces
// these from Appendix B/C descriptions.
type TemplateSpec struct {
	Name  string
	W, H  int
	Terms []TermSpec
}

// TemplateSource resolves template names to their geometry. Implemented
// by library.Library.
type TemplateSource interface {
	Template(name string) (TemplateSpec, error)
}

type record struct {
	line   int
	fields []string
}

func readRecords(r io.Reader, wantFields int, what string) ([]record, error) {
	var out []record
	sc := bufio.NewScanner(r)
	// Records may run to 1 MiB. The buffer starts at the scanner's
	// default size and grows only for a longer line, so parsing a file
	// does not allocate the maximum up front.
	sc.Buffer(nil, 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != wantFields {
			return nil, fmt.Errorf("netlist: %s line %d: want %d fields, got %d: %q",
				what, lineNo, wantFields, len(f), line)
		}
		out = append(out, record{lineNo, f})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: reading %s: %w", what, err)
	}
	return out, nil
}

// CallRecord is one <INSTANCE> <TEMPLATE> pair from a call-file.
type CallRecord struct {
	Instance, Template string
}

// ParseCallFile reads a call-file.
func ParseCallFile(r io.Reader) ([]CallRecord, error) {
	recs, err := readRecords(r, 2, "call-file")
	if err != nil {
		return nil, err
	}
	out := make([]CallRecord, len(recs))
	for i, rec := range recs {
		out[i] = CallRecord{rec.fields[0], rec.fields[1]}
	}
	return out, nil
}

// IORecord is one <TERMINAL> <TYPE> pair from an io-file.
type IORecord struct {
	Terminal string
	Type     TermType
}

// ParseIOFile reads an io-file.
func ParseIOFile(r io.Reader) ([]IORecord, error) {
	recs, err := readRecords(r, 2, "io-file")
	if err != nil {
		return nil, err
	}
	out := make([]IORecord, len(recs))
	for i, rec := range recs {
		typ, err := ParseTermType(rec.fields[1])
		if err != nil {
			return nil, fmt.Errorf("netlist: io-file line %d: %w", rec.line, err)
		}
		out[i] = IORecord{rec.fields[0], typ}
	}
	return out, nil
}

// NetRecord is one <NET> <INSTANCE> <TERMINAL> triple from a
// net-list-file.
type NetRecord struct {
	Net, Instance, Terminal string
}

// ParseNetListFile reads a net-list-file.
func ParseNetListFile(r io.Reader) ([]NetRecord, error) {
	recs, err := readRecords(r, 3, "net-list-file")
	if err != nil {
		return nil, err
	}
	out := make([]NetRecord, len(recs))
	for i, rec := range recs {
		out[i] = NetRecord{rec.fields[0], rec.fields[1], rec.fields[2]}
	}
	return out, nil
}

// Load builds a design from the three Appendix A files. The io-file
// reader may be nil when the network has no system terminals (Appendix E
// allows omitting it). Templates are resolved through src.
func Load(name string, callR, netR, ioR io.Reader, src TemplateSource) (*Design, error) {
	calls, err := ParseCallFile(callR)
	if err != nil {
		return nil, err
	}
	nets, err := ParseNetListFile(netR)
	if err != nil {
		return nil, err
	}
	var ios []IORecord
	if ioR != nil {
		ios, err = ParseIOFile(ioR)
		if err != nil {
			return nil, err
		}
	}

	d := NewDesign(name)
	for _, c := range calls {
		spec, err := src.Template(c.Template)
		if err != nil {
			return nil, fmt.Errorf("netlist: instance %q: %w", c.Instance, err)
		}
		if _, err := d.AddModule(c.Instance, c.Template, spec.W, spec.H, spec.Terms); err != nil {
			return nil, err
		}
	}
	for _, io := range ios {
		if _, err := d.AddSysTerm(io.Terminal, io.Type); err != nil {
			return nil, err
		}
	}
	for _, n := range nets {
		if n.Instance == RootInstance {
			err = d.ConnectSys(n.Net, n.Terminal)
		} else {
			err = d.Connect(n.Net, n.Instance, n.Terminal)
		}
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// The writers append each record to one reused line buffer and write
// every line with a single call: no fmt, and no allocation per record
// once the buffer has grown. Their output is part of the service's
// cache key, so it must not change byte for byte.

// WriteCallFile writes the design's instances as a call-file.
func WriteCallFile(w io.Writer, d *Design) error {
	var line []byte
	for _, m := range d.Modules {
		tpl := m.Template
		if tpl == "" {
			tpl = m.Name
		}
		line = appendRecord(line[:0], m.Name, tpl)
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// WriteIOFile writes the design's system terminals as an io-file.
func WriteIOFile(w io.Writer, d *Design) error {
	var line []byte
	for _, t := range d.SysTerms {
		line = appendRecord(line[:0], t.Name, t.Type.String())
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// WriteNetListFile writes the design's connections as a net-list-file,
// ordered by net name then terminal label for determinism.
func WriteNetListFile(w io.Writer, d *Design) error {
	var (
		line  []byte
		terms []*Terminal
	)
	for _, n := range d.SortedNets() {
		terms = append(terms[:0], n.Terms...)
		slices.SortFunc(terms, compareLabels)
		for _, t := range terms {
			inst := RootInstance
			if t.Module != nil {
				inst = t.Module.Name
			}
			line = appendRecord(line[:0], n.Name, inst, t.Name)
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendRecord appends fields to dst as one blank-separated record line.
func appendRecord(dst []byte, fields ...string) []byte {
	for i, f := range fields {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, f...)
	}
	return append(dst, '\n')
}

// compareLabels orders terminals as strings.Compare orders their
// Labels. The labels are built in stack buffers, so a sort allocates
// nothing for labels of up to 64 bytes.
func compareLabels(a, b *Terminal) int {
	var ab, bb [64]byte
	return bytes.Compare(a.appendLabel(ab[:0]), b.appendLabel(bb[:0]))
}
